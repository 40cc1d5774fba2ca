"""Exact-arithmetic weight systems on permutations, together with the
interlace / skew-characteristic polynomial family on graphs, chord
diagrams and set systems.

The central object is :func:`wgl`, the universal weight system: a
polynomial invariant of permutations with values in Q[N, C1, C2, ...],
multiplicative under disjoint union, determined by a local recurrence.
Everything else specializes it (two-parameter family, standard and
gl(1|1) reductions, interlace rational function) or relates it to
subset-sum polynomials of graphs and set systems.  The :mod:`wsys.verify`
module packages every structural identity as a runnable suite; the
``wsys`` command exposes computation and verification from the shell.

Each public name is written once, in :data:`_EXPORTS` under the module
that defines it, and that module is imported on the name's first access
(PEP 562 ``__getattr__``).  So ``import wsys`` loads no submodule, and a
``wsys`` process loads only the modules its verb runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, under its defining module.
_EXPORTS = {
    "algebra": "Monomial Poly RatFunc casimir poly_subst poly_to_string ratfunc_series var_key",
    "dmat": """DMat check_symmetric_exchange dmat_delete dmat_format dmat_from_chord_diagram
        dmat_from_graph dmat_parse distance is_coloop is_loop partial_dual""",
    "errors": "DomainError InternalError ParseError",
    "glws": """WglState casimir_to_N feps feps_direct feps_in_v gl11_skewchar interlace_perm
        rule_apply rule_terms spec_standard state_value wgl""",
    "graphs": """Graph all_graphs four_term_images gf2_corank graph_format graph_parse graph_pivot
        induced_subgraph is_nondegenerate""",
    "hopf": """eps_independence_check primitive_eval primitive_eval_diagram primitive_eval_graph
        reconstruct_from_primitives restrict_diagram restrict_graph""",
    "invariants": """GraphInvariant convolution graph_4t_check interlace_dmat interlace_graph
        interlace_graph_recursive refined_skew_char_dmat refined_skew_char_graph shift_variable
        skew_char two_var_interlace""",
    "perm": """Perm all_chord_diagrams all_perms chord_4t_graphs chord_4t_quadruple concat
        cycle_count face_count intersection_graph perm_format perm_parse perm_pivot
        standard_cycle subperm""",
    "verify": "EXPERIMENTS SUITES VerifySuiteReport run_suite run_suites suite_names",
}

_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
