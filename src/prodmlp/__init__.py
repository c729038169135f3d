"""prodmlp: shallow additive vs multiplicative networks on singular targets.

A small numpy laboratory for a single question: when a parameter-matched
additive network and a multiplicative (product-block) network approximate a
function with a localized singularity, how do their errors differ -- not just
in L2, but in regularity-sensitive metrics?  The package provides the two
network families with exact gradients, least-squares and Laplacian-penalized
training, discrete Zygmund / H^2-type error metrics, an error-localization
ratio, a product-kernel mollifier demonstration, and a config-driven
experiment harness with a CLI.
"""

from .fdgrid import (
    Grid2D,
    ScalarField,
    laplacian_field,
    read_field_csv,
    write_field_csv,
)
from .harness import (
    CheckpointError,
    ConfigError,
    ExperimentConfig,
    desk_config,
    eval_checkpoint,
    export_field,
    load_checkpoint,
    load_config,
    parse_config,
    run_experiment,
)
from .metrics import (
    MetricConfig,
    MetricReport,
    ZygmundSpec,
    annulus_region,
    approximation_report,
    disk_region,
    h2_error,
    localization_ratio,
    node_error_field,
    sample_widened,
    widened_axis,
    zygmund_seminorm,
)
from .mollifier import (
    MollifierKernel,
    build_kernel,
    convergence_report,
    kernel_as_block,
    kernel_value,
    mollify,
)
from .network import (
    GAUSSIAN_BUMP,
    TANH,
    Activation,
    MlpArch,
    MlpParams,
    MmlpArch,
    MmlpParams,
    activation_by_name,
    forward,
    grid_values,
    init_params,
    matched_additive_width,
    pack_params,
    param_count,
    unpack_params,
    weighted_grad_sum,
)
from .targets import MollifiedCircle, RadialCone, sample_uniform, target_by_name
from .training import (
    AdamState,
    LossSpec,
    TrainConfig,
    TrainingDiverged,
    TrainingTrace,
    TrainResult,
    adam_step,
    h2_loss,
    l2_loss,
    objective,
    read_trace_csv,
    train,
    write_trace_csv,
)

__version__ = "0.1.0"
