"""Exact-arithmetic models of genus-two pencils on rational surfaces.

The package builds Neron-Severi lattices of blown-up planes and ruled
surfaces, searches the numeric types a genus-two pencil can have, reduces a
pencil to its minimal plane or ruled presentation by integer contraction
steps, and certifies the extremal configurations with trivial Mordell-Weil
group.  Everything runs on plain integers; no floating point anywhere.
"""

from __future__ import annotations

from importlib import import_module

# export name -> defining module, grouped by module; a name is imported on
# first use (PEP 562), so a process pays only for the modules it touches
_EXPORTS = {
    name: module
    for module, names in (
        ("catalog", ("CatalogEntry", "VerifyReport", "get", "tags", "verify")),
        ("curves", (
            "BudgetExceededError", "ClassQuery", "enum_classes",
            "fibre_intersection_identity", "minus_one_section_exists",
        )),
        ("fibres", (
            "FibreComponent", "FibreDecomposition", "FibreError", "ade_classify",
            "classify_diagram", "complement_lattice", "dual_graph",
            "orthogonal_decomposition_check", "shioda_rank", "validate_fibre",
        )),
        ("lattice", (
            "DivisorClass", "Fibration", "ForeignClassError", "LatticeError",
            "NotContractibleError", "RulingChoiceError", "Surface", "adjoint_square",
            "arithmetic_genus", "blow_down", "cremona", "elementary_transform",
            "hirzebruch_blowup", "is_minus_one_class", "picard_number", "plane_blowup",
            "plane_curve", "ruled_curve",
        )),
        ("modelfile", ("ModelFile", "ParseError", "from_fibration", "parse", "serialize", "to_fibration")),
        ("numerics", (
            "NumericType", "SpecialType", "apply_exclusion", "exclude_p2_and_hirzebruch",
            "search_general", "search_special", "triple_point_image_obstruction",
        )),
        ("sharp", (
            "IncompleteGeometryError", "InvariantError", "PlaneModel", "ReductionError",
            "canonical_p2_model", "classify_type", "greedy_sharp_minimal", "reduction",
            "sharp_minimal_pipeline",
        )),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
