"""Volume-wide prediction sweep and 3-D median post-filtering.

Both operations are per-voxel independent over immutable inputs.  The
median is taken over the valid (unmasked, in-bounds) neighbours including
the voxel itself; boundary and masked neighbours simply shrink the set.
Even-cardinality sets take the lower median so results are deterministic.
A voxel with no valid neighbour at all (inside a masked hole wider than
the window) is itself masked; it stays masked and keeps its input value.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .formats.volume import ATTRIBUTE_LONG_NAMES, SeismicVolume
from .mlp import ModelBundle


class GeometryMismatch(DataError):
    pass


def predict_volume(bundle: ModelBundle, attrs: list) -> SeismicVolume:
    """Apply the trained model voxel-wise over aligned attribute volumes.

    attrs bind to the model's inputs by position, in the order of
    `bundle.attribute_names`.  A named volume whose name is neither that
    key nor its long name is a ConfigError; an unnamed one is taken as
    given.
    attrs must share geometry exactly; the output mask is the AND of the
    input masks (a voxel with any attribute missing stays missing).
    """
    if len(attrs) != bundle.model.n_in:
        raise GeometryMismatch(
            f"model expects {bundle.model.n_in} attribute volumes, got {len(attrs)}"
        )
    for position, (vol, expected) in enumerate(zip(attrs, bundle.attribute_names)):
        if vol.attribute_name not in ("", expected,
                                      ATTRIBUTE_LONG_NAMES.get(expected)):
            raise ConfigError(
                f"attribute volume {position + 1} is {vol.attribute_name!r}; "
                f"the model expects {expected!r} there "
                f"(order {','.join(bundle.attribute_names)})"
            )
    first = attrs[0]
    for other in attrs[1:]:
        if not first.same_geometry(other):
            raise GeometryMismatch("attribute volumes do not share geometry")
    mask = np.logical_and.reduce([v.mask for v in attrs])
    flat_inputs = np.stack([v.data.ravel() for v in attrs], axis=1)
    predictions = bundle.predict(flat_inputs).reshape(first.data.shape)
    predictions[~mask] = 0.0
    return SeismicVolume(
        inlines=first.inlines.copy(),
        xlines=first.xlines.copy(),
        t0_ms=first.t0_ms,
        dt_ms=first.dt_ms,
        data=predictions,
        attribute_name="sand_fraction",
        mask=mask,
    )


def median_filter_3d(vol: SeismicVolume, window=3) -> SeismicVolume:
    """Order-statistic smoothing over a window x window x window neighbourhood.

    For the full 27-point window this picks the 14th largest value;
    shrunken (boundary or masked) neighbourhoods use the lower median of
    whatever is valid, and a voxel with nothing valid keeps its input value.
    """
    if window < 1 or window % 2 == 0:
        raise DataError(f"window must be odd and >= 1, got {window}")
    edges = (window,) * 3
    valid = np.pad(vol.mask, window // 2)
    data = np.pad(vol.data, window // 2)
    data[~valid] = np.inf
    counts = sliding_window_view(valid, edges).sum(axis=(3, 4, 5))
    # one row of window**3 cells per voxel, the only copy; invalid cells
    # sort to the top, so the lower median of k valid values sits at
    # index (k - 1) // 2.  Ties only swap values that compare equal.
    cells = np.empty(vol.data.shape + edges)
    cells[...] = sliding_window_view(data, edges)
    cells = cells.reshape(vol.data.shape + (-1,))
    cells.sort(axis=-1)
    picked = np.take_along_axis(cells, (counts[..., None] - 1) // 2, axis=-1)
    return SeismicVolume(
        inlines=vol.inlines.copy(),
        xlines=vol.xlines.copy(),
        t0_ms=vol.t0_ms,
        dt_ms=vol.dt_ms,
        data=np.where(counts > 0, picked[..., 0], vol.data),
        attribute_name=vol.attribute_name,
        mask=vol.mask.copy(),
    )


def heatmap_csv(vol: SeismicVolume, inline: int) -> str:
    """Inline section as a CSV heatmap: one row per time sample, one column
    per crossline (masked voxels empty)."""
    i = vol.inline_index(inline)
    lines = ["time_ms," + ",".join(f"xline_{x}" for x in vol.xlines)]
    for k, t in enumerate(vol.times_ms):
        cells = [
            f"{vol.data[i, j, k]:.6g}" if vol.mask[i, j, k] else ""
            for j in range(len(vol.xlines))
        ]
        lines.append(f"{t:.6g}," + ",".join(cells))
    return "\n".join(lines) + "\n"
