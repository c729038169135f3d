"""Where does the approximation error live after training on the circle?

The interesting part of the mollified circle is its thin transition layer.
The localization ratio compares the share of squared error inside a region
with the share of grid nodes the region holds; a ratio well above 1 means
the remaining error concentrates there.
"""

from prodmlp import (
    GAUSSIAN_BUMP,
    Grid2D,
    MetricConfig,
    MlpArch,
    MmlpArch,
    MollifiedCircle,
    TrainConfig,
    ZygmundSpec,
    annulus_region,
    approximation_report,
    grid_values,
    l2_loss,
    localization_ratio,
    node_error_field,
    sample_widened,
    train,
    widened_axis,
)

target = MollifiedCircle()
region = annulus_region(target.r0, 3 * target.eps)
metrics = MetricConfig(grid=Grid2D(h=1.0 / 16.0), zygmund=ZygmundSpec(k_max=4))
cfg = TrainConfig(iterations=600, batch_size=128, samples=4000,
                  checkpoint_interval=600, seed=1, learning_rate=3e-3)

print("training both families on the mollified circle (600 steps each)\n")
for arch in (MlpArch(20), MmlpArch(16)):
    result = train(arch, GAUSSIAN_BUMP, target, l2_loss(), cfg, metrics=metrics)
    # F - f on the metric grid widened by the Zygmund margin: the error field
    # and every metric are slices of this one array
    axis = widened_axis(metrics)
    err = grid_values(result.params, GAUSSIAN_BUMP, axis) - sample_widened(target, metrics)
    ratio = localization_ratio(node_error_field(err, metrics), region)
    report = approximation_report(err, metrics)
    print(f"{arch!r}")
    print(f"  final l2 error          {report.l2_error:.5f}")
    print(f"  localization ratio on the transition annulus "
          f"|r - {target.r0}| < {3 * target.eps:.2f}: {ratio:.3f}")
    print()
