"""Exact chromatic symmetric functions of weighted graphs, tree
invariants, and desk-scale distinctness verification.

The namespace is lazy (PEP 562): `import csfkit` loads no submodule but
`partitions`, and each name in `__all__` is imported from the module
that defines it on first access, so a command loads only the modules it
runs.  Submodules resolve the same way: `csfkit.csf.csf_tree` works
after a bare `import csfkit`.
"""

from importlib import import_module

# `partitions` names both a function and its module; binding the function
# now keeps a later import of the module from shadowing it here
from .partitions import partitions

__version__ = "0.1.0"

_EXPORTS = {
    "canon": ("are_isomorphic", "canonical_certificate", "small_graph_certificate"),
    "csf": ("CsfResult", "corollary_difference", "csf_deletion_contraction", "csf_forest",
            "csf_graph", "csf_power_sum", "csf_tree", "csf_weighted", "forest_level_value",
            "inclusion_exclusion_rhs", "level_sum", "subtree_derivative"),
    "enumeration": ("FREE_TREE_COUNTS", "classify", "enumerate_trees", "enumerate_unicyclic"),
    "errors": ("CapacityError", "ConsistencyError", "CsfkitError", "GraphParseError",
               "NotATreeError"),
    "formats": ("format_edge_list", "format_graph6", "load_graph", "parse_edge_list",
                "parse_graph6"),
    "graphs": ("Graph", "Tree", "VertexWeighting", "contract_edges", "enumerate_subtrees",
               "path_sequence", "trunk", "twig_sequence"),
    "invariants": ("BivariatePolynomial", "f_polynomial_direct", "f_polynomial_dp",
                   "f_polynomial_from_csf", "generalized_degree_sequence", "identity_matrix",
                   "matrix_multiply", "omega_check", "sigma", "sign_binomial_matrix",
                   "stats_from_subtree_polynomial", "subtree_polynomial",
                   "subtree_polynomial_dp"),
    "partitions": ("merge_parts", "partitions", "z_of"),
    "psym": ("PPolynomial", "p_of_partition"),
    "reports": ("VerificationReport", "write_reports"),
    "verify": ("compute_report", "csf_hash", "find_collisions", "selftest", "verify_distinct"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
