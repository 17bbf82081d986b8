"""Exact ramification invariants of degree-p cyclic extensions of
Henselian valued fields: ordered value groups, conductor cuts, generalized
power series models, and defect-extension constructions."""

from .ordered_group import (
    GroupDescriptor,
    GroupElement,
    HullElement,
    element,
    hull_element,
    int_lex,
    int_scale,
    p_inverted,
    quadratic,
    zero,
)
from .cuts import Cut, Surd, frontier_cut, open_cut, principal_cut, whole_cut
from .series_field import (
    CoeffField,
    FieldElement,
    SeriesElement,
    SigmaSpec,
    norm,
    t_term,
    trace,
)
from .swan import (
    EqualCharSymbolic,
    KummerSymbolic,
    RswSymbol,
    SwanData,
    Type2Move,
    UndeterminedError,
    artin_schreier_reduce,
    break_of,
    classify_equal_char,
    classify_kummer_symbolic,
    galois_image,
    plan_log_smooth,
    transported_value_image,
    value_group_image,
    wild_inertia_check,
)
from .defect_lab import (
    DefectModel,
    build_defect_model,
    build_principal_case,
    break_witness,
    conductor_limit_check,
    twin_pair,
    verify_delta_bounds,
)
from .separation import (
    GapDatum,
    connectivity_threshold,
    model_gap,
    separation_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
