"""Teleological interpretation of statistical dependence.

Discrete deterministic causal models, the do-operator, goal hypotheses over
interventions, their observational signatures, and purely causal reductions
of the same stories.  See the README for the model-spec language and the
command line.
"""

from teleo.errors import TeleoError
from teleo.intervention import (
    InterventionSpec,
    MStarModel,
    do_surgery,
    enumerate_worlds_star,
    interventional_distribution,
)
from teleo.model import (
    CausalDag,
    IndependenceStatement,
    Mechanism,
    Scm,
    Variable,
    WorldTable,
    conditional_distribution,
    enumerate_worlds,
    uniform_independent,
)
from teleo.dsep import d_separated
from teleo.teleology import (
    Comparison,
    FinalModel,
    GoalPredicate,
    build_final_model,
    compatible_worlds,
    distinguishable,
    enumerate_goal_hypotheses,
    goal,
    implied_dependencies,
)
from teleo.identification import (
    Dataset,
    check_dependence,
    check_support,
    load_dataset,
    rank_hypotheses,
    summarize_ranking,
)
from teleo.reduction import (
    ReductionModel,
    build_reduction,
    compare_structures,
    project_reduction,
    reduction_worlds,
    splice_out,
)
from teleo.speclang import load_model, parse_model, print_model

__version__ = "0.1.0"

__all__ = [
    "TeleoError",
    "Variable",
    "CausalDag",
    "Mechanism",
    "Scm",
    "WorldTable",
    "IndependenceStatement",
    "enumerate_worlds",
    "uniform_independent",
    "conditional_distribution",
    "d_separated",
    "InterventionSpec",
    "MStarModel",
    "do_surgery",
    "enumerate_worlds_star",
    "interventional_distribution",
    "Comparison",
    "GoalPredicate",
    "goal",
    "FinalModel",
    "build_final_model",
    "compatible_worlds",
    "implied_dependencies",
    "distinguishable",
    "enumerate_goal_hypotheses",
    "Dataset",
    "load_dataset",
    "check_support",
    "check_dependence",
    "rank_hypotheses",
    "summarize_ranking",
    "ReductionModel",
    "build_reduction",
    "reduction_worlds",
    "project_reduction",
    "splice_out",
    "compare_structures",
    "parse_model",
    "print_model",
    "load_model",
    "__version__",
]
