"""Exact computations in the planar prop of multi-differential operators.

The package is organized bottom-up: monotone maps of finite ordinals,
ordered partitions and refinements, planar directed graphs with level
embeddings, the elementary prop calculus with normal forms, finite
dimensional algebras and their graded targets, differential operators
with their compositions, and truncated automorphism families.
"""

__version__ = "0.1.0"

from .algebras import (
    FinAlgebra,
    GradedTarget,
    check_algebra,
    dual_numbers,
    hochschild_d,
    is_formally_smooth_witness,
    kxk,
    load_algebra,
    m2,
)
from .families import (
    AutFamily,
    from_derivations,
    identity_family,
    pullback,
    r_map,
    surjectivity_probe,
    validate_aut,
)
from .graphs import Corolla, NotPlanar, PlanarGraph, hcomp_graph, vcomp_graph
from .linalg import Matrix
from .operators import (
    DiffOperator,
    OperatorSum,
    bullet_v,
    check_leibniz,
    check_mP,
    compose_D,
    degeneracy,
    dim_D,
    extend_degenerate,
    h_compose,
    is_totally_positive,
    mult_operator,
    one_operator,
    solve_D,
    solve_Dn,
    symbol,
    symbol_exactness,
    unit_operator,
    v_compose,
)
from .ordinals import MonotoneMap, all_epis, merge, star_dual
from .partitions import OrderedPartition, enumerate_partitions, lift_output_type
from .props import EndProp, NormalForm, braid_check, eval_expr, normalize, parse_expr
