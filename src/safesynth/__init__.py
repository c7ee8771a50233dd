"""Data-driven synthesis of provably safe polynomial controllers.

Collects sampled transitions of an unknown discrete-time system, solves a
scenario linear program for a polynomial barrier function and controller, and
certifies the result either with a prior sample-size bound or, far more
sample-efficiently, with a posterior confidence bound computed from an
independent validation dataset.
"""

__version__ = "0.1.0"

from .bounds import (
    PosteriorInputs,
    PriorInputs,
    binom_tail,
    plan_sample_sizes,
    posterior_g,
    prior_sample_size,
    solve_kappa,
)
from .errors import SafesynthError
from .geometry import (
    Box,
    RegionUnion,
    SampleSpace,
    in_region,
    sample_uniform,
    u_inverse,
    u_of_r,
    volume,
)
from .pipeline import (
    CertificateReport,
    SynthesisConfig,
    load_config,
    prior_synthesize,
    repeat_experiment,
    room_casestudy_config,
    synthesize,
    validate_config,
)
from .plant import (
    Dataset,
    ExternalProcessPlant,
    Role,
    RoomTemperaturePlant,
    collect,
    load_dataset,
    save_dataset,
    step_room,
)
from .polynomial import (
    PolyBasis,
    Polynomial,
    build_basis,
    eval_basis,
    eval_poly,
    monomial_gradient_bound,
)
from .scp import (
    CertificateValues,
    DecisionLayout,
    GridSpec,
    LpProblem,
    LpResult,
    LpTolerances,
    build_problem,
    count_active_g3,
    solve_lp,
)
from .verify import (
    ConditionReport,
    Trajectory,
    check_cbf_conditions,
    empirical_safety,
    emit_plot_data,
    simulate_closed_loop,
    violation_frequency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
