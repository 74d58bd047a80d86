"""The systems the paper measures the J-Kernel *against*: the NT-RPC
local RPC and the MS-COM component model of Table 2 (``ntrpc``,
``com``) and Sun's interpreted Java Web Server of Table 5 (``jws``).
They are comparators, not parts of the product — nothing under
``repro.ipc``, ``repro.web`` or ``repro.fleet`` imports this package
(``tests/web/test_product_imports.py``)."""
