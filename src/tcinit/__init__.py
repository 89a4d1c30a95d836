"""Graph-based weight initialization for tensorized convolutional layers.

The package represents a tensorized layer as a contraction hypergraph,
rewrites its backward pass as a convolution, reduces both directions to
backbone graphs, and derives initialization variances that keep activation
and gradient variance stable; a seeded Monte-Carlo harness verifies the
calculus empirically.
"""

from .errors import (
    AxisOutOfRange,
    DimensionMismatch,
    DuplicateAxis,
    InvalidDummySpec,
    InvalidPadding,
    InvalidParams,
    InvalidShape,
    ParseError,
    PlanIncomplete,
    ResourceLimit,
    ShapeMismatch,
    TcinitError,
    TooManyIndices,
    UnboundAxis,
    ValidationError,
)
from .formats import (
    BUILTIN_NAMES,
    HyperEdge,
    LayerFormat,
    RandomFormatConstraints,
    Vertex,
    builtin_format,
    parse_format,
    random_format,
    serialize_format,
    validate,
)
from .graph import (
    BASELINE_MODES,
    FAN_IN,
    FAN_OUT,
    GRAPH_MODES,
    PLAN_MODES,
    BackboneGraph,
    InitPlan,
    baseline_variance,
    edge_product,
    extract_bg,
    graph_init_variance,
    make_plan,
    plan_report,
    plan_report_json,
    predicted_output_variance,
)
from .network import (
    MaterializedLayer,
    backward_apply,
    forward_apply,
    materialize,
)
from .simulate import (
    DEFAULT_CHAIN_DIMS,
    LayerSpec,
    NetworkSpec,
    TraceReport,
    backward_trace,
    forward_trace,
    proposition_checks,
    report_csv,
    report_json,
    scale_chain,
    validate_network,
    variance_mc,
)
from .tensor import (
    ACTIVATIONS,
    DenseTensor,
    DummySpec,
    build_dummy,
    contract,
    multi_contract,
    reversal_matrix,
    transformation_matrix,
)
from .transform import (
    BackwardDummySpec,
    backward_dummy,
    backward_pattern,
    build_backward_dummy,
    build_backward_format,
    theorem1_grid,
    verify_theorem1,
)

__version__ = "0.1.0"
