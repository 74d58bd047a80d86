"""Runtime class representation and linking.

A :class:`RuntimeClass` is a loaded, laid-out class.  Identity matters: two
loaders that define a classfile with the same *name* produce two distinct,
mutually incompatible runtime classes — this is the namespace isolation the
paper builds protection domains out of.

Cross-loader type safety is preserved by two rules enforced here:

* overriding and interface implementation require the parameter and return
  classes of the two signatures to resolve to the *identical* runtime
  classes through each side's defining loader (the analogue of JVM loader
  constraints, checked eagerly at link time);
* assignability is computed over runtime-class identity, never over names.
"""

from __future__ import annotations

from .classfile import ACC_ABSTRACT, CONSTRUCTOR_NAME
from .errors import IncompatibleClassChangeError, LinkageError
from .values import (
    OBJECT,
    default_value,
    is_reference_descriptor,
    parse_method_descriptor,
)


class RuntimeClass:
    """A linked class, interface, or array class.

    ``frameless`` caches, per method, the function the fast tier
    (:mod:`repro.jvm.frameless`) compiled for it the first time it ran,
    with whether the method is a leaf and whether it is bounded.
    """

    __slots__ = (
        "name",
        "classfile",
        "loader",
        "superclass",
        "interfaces",
        "is_interface",
        "instance_field_defs",
        "field_slots",
        "field_owners",
        "static_defs",
        "static_index",
        "static_slots",
        "vtable",
        "vindex",
        "declared",
        "all_interfaces",
        "array_element",
        "element_class",
        "native_bindings",
        "itables",
        "initialized",
        "copy_plan",
        "frameless",
    )

    def __init__(self, name, classfile, loader, superclass, interfaces):
        self.name = name
        self.classfile = classfile
        self.loader = loader
        self.superclass = superclass
        self.interfaces = list(interfaces)
        self.is_interface = classfile.is_interface if classfile else False
        self.instance_field_defs = []
        self.field_slots = {}  # field name -> slot index
        self.field_owners = {}  # field name -> declaring RuntimeClass
        self.static_defs = []
        self.static_index = {}
        self.static_slots = []
        self.vtable = []  # list of (owner RuntimeClass, MethodDef)
        self.vindex = {}  # (name, desc) -> vtable index
        self.declared = {}  # (name, desc) -> MethodDef
        self.all_interfaces = set()
        self.array_element = None  # element descriptor for array classes
        self.element_class = None  # element RuntimeClass for reference arrays
        self.native_bindings = {}  # (name, desc) -> python callable
        self.itables = {}  # interface RuntimeClass -> {(name, desc) -> vtable idx}
        self.initialized = False
        self.copy_plan = None  # cached by repro.jkvm.copying on first crossing
        self.frameless = {}  # (name, desc) -> (fn, is_leaf, is_bounded)

    def __repr__(self):
        loader_name = getattr(self.loader, "name", "<boot>")
        return f"<RuntimeClass {self.name} loader={loader_name}>"

    # -- hierarchy ---------------------------------------------------------
    @property
    def is_array(self):
        return self.array_element is not None

    def is_subclass_of(self, other):
        cursor = self
        while cursor is not None:
            if cursor is other:
                return True
            cursor = cursor.superclass
        return False

    def is_assignable_to(self, other):
        """May a value of this class be stored where ``other`` is expected?"""
        if self is other:
            return True
        if other.is_interface:
            return other in self.all_interfaces
        if self.is_array:
            if other.name == OBJECT:
                return True
            if not other.is_array:
                return False
            if self.element_class is not None and other.element_class is not None:
                return self.element_class.is_assignable_to(other.element_class)
            return self.array_element == other.array_element
        return self.is_subclass_of(other)

    # -- member lookup --------------------------------------------------------
    def find_field(self, name):
        """Resolve an instance field by name.

        Inherited fields are merged into ``field_slots`` at layout time, so
        a single lookup suffices.  Returns ``(declaring_class, slot_index,
        FieldDef)`` or ``None``.
        """
        slot = self.field_slots.get(name)
        if slot is None:
            return None
        return self.field_owners[name], slot, self.instance_field_defs[slot]

    def find_static(self, name):
        """Resolve a static field by name up the hierarchy.

        Returns ``(declaring_class, index, FieldDef)`` or ``None``.
        """
        cursor = self
        while cursor is not None:
            index = cursor.static_index.get(name)
            if index is not None:
                return cursor, index, cursor.static_defs[index]
            cursor = cursor.superclass
        return None

    def find_declared(self, name, desc):
        """Resolve a method directly (statics, privates, constructors).

        Walks up the hierarchy; returns ``(declaring_class, MethodDef)`` or
        ``None``.
        """
        cursor = self
        while cursor is not None:
            method_def = cursor.declared.get((name, desc))
            if method_def is not None:
                return cursor, method_def
            cursor = cursor.superclass
        return None

    def find_interface_method(self, name, desc):
        """Find an abstract declaration in this interface or its supers."""
        if (name, desc) in self.declared:
            return self.declared[(name, desc)]
        for parent in self.interfaces:
            found = parent.find_interface_method(name, desc)
            if found is not None:
                return found
        return None

    def vtable_index(self, name, desc):
        return self.vindex.get((name, desc))


def make_array_class(element_desc, element_class, object_class, loader):
    """Build the runtime class for an array type.

    For primitive arrays ``element_class`` is None and ``element_desc`` is
    the primitive descriptor; for reference arrays the element descriptor
    is derived from the element class (which may itself be an array).
    """
    if element_class is None:
        element = element_desc
    elif element_class.is_array:
        element = element_class.name
    else:
        element = f"L{element_class.name};"
    rtclass = RuntimeClass("[" + element, None, loader, object_class, [])
    rtclass.array_element = element
    rtclass.element_class = element_class
    rtclass.vtable = list(object_class.vtable)
    rtclass.vindex = dict(object_class.vindex)
    return rtclass


def link_class(classfile, loader, superclass, interfaces, resolve):
    """Lay out and link one class.

    ``resolve(loader, class_name)`` loads/returns a RuntimeClass through a
    loader's namespace; it is supplied by ``repro.jvm.loader`` and may
    recursively trigger definition of other classes.
    """
    rtclass = RuntimeClass(classfile.name, classfile, loader, superclass, interfaces)

    _layout_fields(rtclass, classfile, superclass)
    _collect_interfaces(rtclass, superclass, interfaces)
    _build_dispatch(rtclass, classfile, superclass, resolve)
    if not classfile.is_interface and not _is_abstract(classfile):
        _check_interface_implementation(rtclass, resolve)
    return rtclass


def _is_abstract(classfile):
    return bool(classfile.flags & ACC_ABSTRACT)


def _layout_fields(rtclass, classfile, superclass):
    if superclass is not None:
        rtclass.instance_field_defs = list(superclass.instance_field_defs)
        rtclass.field_slots = dict(superclass.field_slots)
        rtclass.field_owners = dict(superclass.field_owners)
    for field_def in classfile.fields:
        if field_def.is_static:
            if field_def.name in rtclass.static_index:
                raise LinkageError(
                    f"duplicate static field {classfile.name}.{field_def.name}"
                )
            rtclass.static_index[field_def.name] = len(rtclass.static_defs)
            rtclass.static_defs.append(field_def)
            rtclass.static_slots.append(default_value(field_def.desc))
            continue
        if field_def.name in rtclass.field_slots:
            raise LinkageError(
                f"field {field_def.name} in {classfile.name} shadows an "
                "inherited field (shadowing is not supported)"
            )
        rtclass.field_slots[field_def.name] = len(rtclass.instance_field_defs)
        rtclass.field_owners[field_def.name] = rtclass
        rtclass.instance_field_defs.append(field_def)


def _collect_interfaces(rtclass, superclass, interfaces):
    if superclass is not None:
        rtclass.all_interfaces |= superclass.all_interfaces
    for iface in interfaces:
        if not iface.is_interface:
            raise IncompatibleClassChangeError(
                f"{rtclass.name} implements non-interface {iface.name}"
            )
        rtclass.all_interfaces.add(iface)
        rtclass.all_interfaces |= iface.all_interfaces


def _build_dispatch(rtclass, classfile, superclass, resolve):
    if superclass is not None and not classfile.is_interface:
        rtclass.vtable = list(superclass.vtable)
        rtclass.vindex = dict(superclass.vindex)

    for method_def in classfile.methods:
        rtclass.declared[method_def.key] = method_def
        if classfile.is_interface or method_def.is_static or method_def.is_private:
            continue
        if method_def.name == CONSTRUCTOR_NAME:
            continue
        existing = rtclass.vindex.get(method_def.key)
        if existing is not None:
            overridden_owner, overridden = rtclass.vtable[existing]
            _check_signature_identity(
                rtclass, method_def, overridden_owner, overridden, resolve
            )
            rtclass.vtable[existing] = (rtclass, method_def)
        else:
            rtclass.vindex[method_def.key] = len(rtclass.vtable)
            rtclass.vtable.append((rtclass, method_def))


def _check_interface_implementation(rtclass, resolve):
    for iface in rtclass.all_interfaces:
        for key, declaration in iface.declared.items():
            index = rtclass.vindex.get(key)
            if index is None:
                raise IncompatibleClassChangeError(
                    f"{rtclass.name} does not implement "
                    f"{iface.name}.{key[0]}{key[1]}"
                )
            owner, implementation = rtclass.vtable[index]
            _check_signature_identity(
                owner, implementation, iface, declaration, resolve
            )


def _check_signature_identity(owner_a, method_a, owner_b, method_b, resolve):
    """Loader-constraint analogue: the classes named in a shared signature
    must resolve identically through both defining loaders."""
    if owner_a.loader is owner_b.loader:
        return
    args, ret = parse_method_descriptor(method_a.desc)
    for desc in [*args, ret]:
        if not is_reference_descriptor(desc):
            continue
        name = _named_class(desc)
        if name is None:
            continue
        class_a = resolve(owner_a.loader, name)
        class_b = resolve(owner_b.loader, name)
        if class_a is not class_b:
            raise LinkageError(
                f"loader constraint violated: {name} resolves differently "
                f"for {owner_a.name} and {owner_b.name} "
                f"(method {method_a.name}{method_a.desc})"
            )


def _named_class(desc):
    while desc.startswith("["):
        desc = desc[1:]
    if desc.startswith("L") and desc.endswith(";"):
        return desc[1:-1]
    return None
