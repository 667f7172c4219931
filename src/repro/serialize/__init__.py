"""Serialization substrate: capturing function code and moving Python values.

The paper's *discover* mechanism (§3.2) tries source extraction first
(``inspect``), then falls back to binary serialization (``cloudpickle``)
for lambdas and dynamically-created functions.  This subpackage implements
both routes plus the value (argument/result) serialization used on every
manager↔worker↔library hop.
"""

from repro import lazy_exports

# Resolved on first access: task runners and libraries need ``core`` and
# ``source``, never the registry.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            "serialize",
            "deserialize",
            "serialize_to_file",
            "deserialize_from_file",
        ),
        "source": (
            "FunctionCode",
            "capture_function",
            "extract_source",
            "is_serializable_by_source",
        ),
        "registry": ("SerializerRegistry", "get_default_registry"),
    },
)
