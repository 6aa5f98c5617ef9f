"""Co-boxicity and threshold co-dimension of block graphs via big ant covers.

The names below are loaded from their modules on first access (PEP 562),
so importing the package, or one module such as antcover.cli, loads only
the modules that the caller actually uses.
"""

from importlib import import_module

_EXPORTS = {
    "blocks": (
        "BlockDecomposition",
        "block_cut_tree_dot",
        "block_decomposition",
        "is_block_graph",
    ),
    "cointerval": (
        "BigAnt",
        "EdgeSubgraph",
        "big_ant",
        "is_cointerval",
        "is_threshold",
        "maximal_cointerval_subgraphs",
        "maximal_threshold_subgraphs",
        "sigma_subgraph",
    ),
    "cover": (
        "BoxRepresentation",
        "Cover",
        "IterationTrace",
        "VerificationReport",
        "coboxicity",
        "cothdim",
        "cover_from_dict",
        "cover_to_box_representation",
        "cover_to_dict",
        "min_cointerval_cover",
        "min_threshold_cover",
        "path_coboxicity",
        "traces_from_dict",
        "validate_run",
        "verify_cover",
    ),
    "errors": (
        "InputError",
        "InternalInvariantError",
        "NotBlockGraphError",
        "SizeLimitError",
    ),
    "generate": ("random_block_graph",),
    "graph": (
        "Graph",
        "build_graph",
        "disjoint_union",
        "parse_edgelist",
        "parse_structured",
        "serialize_edgelist",
        "serialize_structured",
    ),
    "oracle": (
        "SetCoverInstance",
        "brute_coboxicity",
        "brute_cothdim",
        "enumerate_maximal_cointerval_edge_sets",
        "maximal_threshold_edge_sets",
        "min_set_cover_exact",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
