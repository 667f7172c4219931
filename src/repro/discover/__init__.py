"""The *discover* mechanism (paper §2.2.1 / §3.2).

Discovery assembles the four elements of a function context:

* **function code** — captured by :mod:`repro.serialize.source`;
* **software dependencies** — inferred by the AST import scanner
  (:mod:`repro.discover.imports`) and packed into a portable environment
  tarball (:mod:`repro.discover.packaging`), our Poncho/conda-pack analog;
* **input data** — explicit, content-addressed data bindings
  (:mod:`repro.discover.data`);
* **environment setup** — a user-supplied setup callable registered with
  the context and executed once per library instance.

The result is a :class:`~repro.discover.context.FunctionContext`, the unit
that the *distribute* and *retain* mechanisms ship and cache.
"""

from repro import lazy_exports

# Resolved on first access: a worker needs ``packaging`` alone.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "context": ("FunctionContext", "ContextElement", "discover_context"),
        "imports": ("scan_imports", "scan_imports_source"),
        "environment": ("EnvironmentSpec", "resolve_environment"),
        "packaging": ("pack_environment", "unpack_environment"),
        "data": ("DataBinding", "declare_data"),
    },
)
