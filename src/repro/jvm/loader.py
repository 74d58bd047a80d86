"""Class loaders, namespaces and resolvers.

Each loader owns a *namespace*: a partial map from class names to runtime
classes (the paper's §2 definition).  A domain protects itself by
controlling what its resolver makes visible: a class name that the resolver
does not resolve simply does not exist for code loaded by that loader, and
two loaders may bind the same name to different classes.

Resolution order for ``loader.load(name)``:

1. the loader's namespace (already loaded / already shared),
2. the loader's resolver (which may *define* a new class from a classfile,
   or *share* an existing runtime class by returning it),
3. the parent loader (system classes), if any.

Sharing a runtime class from another loader binds the same identity in this
namespace, so types stay compatible across the share — exactly how the
J-Kernel shares remote interfaces and fast-copy classes between domains.
"""

from __future__ import annotations

from .classfile import ACC_FINAL, ClassFile, check_classfile
from .errors import ClassNotFoundError, LinkageError
from .runtime import RuntimeClass, link_class


class Resolver:
    """Base resolver: resolves nothing.  Subclass or use MapResolver."""

    def resolve(self, loader, name):
        """Return a ClassFile (define here), a RuntimeClass (share), or None."""
        return None


class MapResolver(Resolver):
    """Resolver backed by a dict of name -> ClassFile | RuntimeClass."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    def add(self, classfile_or_class):
        self.entries[classfile_or_class.name] = classfile_or_class
        return self

    def resolve(self, loader, name):
        return self.entries.get(name)


class ChainResolver(Resolver):
    """Tries a sequence of resolvers in order."""

    def __init__(self, *resolvers):
        self.resolvers = list(resolvers)

    def resolve(self, loader, name):
        for resolver in self.resolvers:
            found = resolver.resolve(loader, name)
            if found is not None:
                return found
        return None


class DenyResolver(Resolver):
    """Hides specific names even if the parent loader could provide them.

    Used to interpose safe versions of problematic system classes: deny the
    real name, and have another resolver supply the replacement.
    """

    def __init__(self, hidden_names, on_denied=None):
        self.hidden = set(hidden_names)
        self.on_denied = on_denied

    def resolve(self, loader, name):
        if name in self.hidden:
            if self.on_denied is not None:
                self.on_denied(loader, name)
            raise ClassNotFoundError(
                f"class {name} is hidden from namespace of {loader.name}"
            )
        return None


class ClassLoader:
    """One namespace plus the machinery to populate it."""

    def __init__(self, vm, name, resolver=None, parent=None, verify=True):
        self.vm = vm
        self.name = name
        self.resolver = resolver or Resolver()
        self.parent = parent
        self.verify = verify
        self.namespace = {}
        self._defining = set()

    def __repr__(self):
        return f"<ClassLoader {self.name}>"

    # -- queries ----------------------------------------------------------
    def loaded(self, name):
        return self.namespace.get(name)

    def visible_names(self):
        names = set(self.namespace)
        if self.parent is not None:
            names |= self.parent.visible_names()
        return names

    # -- loading -------------------------------------------------------------
    def load(self, name):
        """Resolve ``name`` in this namespace, loading if necessary."""
        found = self.namespace.get(name)
        if found is not None:
            return found
        resolved = self.resolver.resolve(self, name)
        if resolved is None:
            if self.parent is not None:
                found = self.parent.load(name)
                self.namespace[name] = found
                return found
            raise ClassNotFoundError(f"{name} not visible in {self.name}")
        if isinstance(resolved, RuntimeClass):
            return self.share(resolved)
        if isinstance(resolved, ClassFile):
            if resolved.name != name:
                raise LinkageError(
                    f"resolver for {self.name} returned classfile "
                    f"{resolved.name} for requested name {name}"
                )
            return self.define(resolved)
        raise LinkageError(
            f"resolver for {self.name} returned {type(resolved).__name__}"
        )

    def share(self, rtclass):
        """Bind an existing runtime class (same identity) in this namespace."""
        existing = self.namespace.get(rtclass.name)
        if existing is not None:
            if existing is not rtclass:
                raise LinkageError(
                    f"{rtclass.name} already bound to a different class "
                    f"in {self.name}"
                )
            return existing
        self.namespace[rtclass.name] = rtclass
        return rtclass

    def define(self, classfile):
        """Define a new class in this namespace from a classfile.

        Runs structural checks, linking (with loader-constraint checks) and
        bytecode verification.  On any failure the name is left unbound.
        """
        name = classfile.name
        if name in self.namespace:
            raise LinkageError(f"{name} already defined in {self.name}")
        if name in self._defining:
            raise LinkageError(f"cyclic definition of {name} in {self.name}")
        check_classfile(classfile)
        self._defining.add(name)
        try:
            superclass = None
            if classfile.super_name is not None:
                superclass = self.load(classfile.super_name)
                if superclass.is_interface or superclass.is_array:
                    raise LinkageError(
                        f"{name} extends non-class {superclass.name}"
                    )
                if superclass.classfile is not None and \
                        superclass.classfile.flags & ACC_FINAL:
                    # Final means final: immutability arguments elsewhere
                    # (e.g. the stub generator sharing String arguments)
                    # rely on final system classes having no subclasses.
                    raise LinkageError(
                        f"{name} extends final class {superclass.name}"
                    )
            interfaces = [self.load(iface) for iface in classfile.interfaces]
            rtclass = link_class(
                classfile,
                self,
                superclass,
                interfaces,
                resolve=lambda loader, cname: loader.load(cname),
            )
            self.namespace[name] = rtclass
            try:
                if self.verify:
                    from .verifier import verify_class

                    verify_class(self.vm, rtclass)
                self.vm.natives.bind_class(rtclass)
            except Exception:
                del self.namespace[name]
                raise
            return rtclass
        finally:
            self._defining.discard(name)

    def define_all(self, classfiles):
        """Define a batch of possibly mutually-referring classfiles."""
        batch = MapResolver({cf.name: cf for cf in classfiles})
        original = self.resolver
        self.resolver = ChainResolver(batch, original)
        try:
            return [self.load(cf.name) for cf in classfiles]
        finally:
            self.resolver = original
