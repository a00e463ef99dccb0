"""Volume-wide prediction sweep and 3-D median post-filtering.

Both operations are per-voxel independent over immutable inputs, so both
work through the volume in fixed blocks of at most `BLOCK_ROWS` voxels
and write into one preallocated output: their working memory is set by
the block, not by the volume.  The median is taken over the valid
(unmasked, in-bounds) neighbours including the voxel itself; boundary and
masked neighbours simply shrink the set.  Even-cardinality sets take the
lower median so results are deterministic.  A voxel with no valid
neighbour at all (inside a masked hole wider than the window) is itself
masked; it stays masked and keeps its input value.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .formats.volume import ATTRIBUTE_LONG_NAMES, SeismicVolume
from .mlp import ModelBundle

# Voxels per block of either volume stage.  A power of two: every block but
# the last then holds a multiple of 4 rows, and OpenBLAS rounds the output
# layer's gemv exactly as it does in one call over the whole volume (blocks
# of 6 or 7 rows, or whole inlines, change the last bit).
BLOCK_ROWS = 1 << 16


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
    The model runs over blocks of `BLOCK_ROWS` flattened voxels, so its
    activations never span the whole volume.
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
    columns = [v.data.reshape(-1) for v in attrs]
    predictions = np.empty(first.data.shape)
    flat = predictions.reshape(-1)
    # a lone last row would go through numpy's dot, not the gemv of every
    # other row, so the last block takes it on
    edges = [*range(0, max(flat.size - 1, 1), BLOCK_ROWS), flat.size]
    for start, stop in zip(edges, edges[1:]):
        flat[start:stop] = bundle.predict(
            np.stack([c[start:stop] for c in columns], axis=1))
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
    The window cells are sorted one slab of inlines at a time, each slab at
    most `BLOCK_ROWS` voxels (or one inline, if an inline is larger); only
    that slab is ever padded, never the whole volume.
    """
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    edges = (window,) * 3
    half = window // 2
    n_inlines, n_xlines, n_samples = vol.data.shape
    step = min(n_inlines, max(1, BLOCK_ROWS // (n_xlines * n_samples)))
    # one slab of step inlines padded by half a window on every side, refilled
    # for each step: +inf at masked and out-of-bounds cells, and each cell's
    # validity in the narrowest signed type that holds window**3, so that
    # count - 1 = -1 stays representable
    padded = (step + window - 1, n_xlines + window - 1, n_samples + window - 1)
    slab = np.empty(padded)
    valid = np.empty(padded, dtype=np.min_scalar_type(-window ** 3))
    # one row of window**3 cells per voxel of a slab, one buffer for every
    # slab; invalid cells sort to the top, so the lower median of k valid
    # values sits at index (k - 1) // 2.  Ties only swap values that
    # compare equal.
    buffer = np.empty((step, n_xlines, n_samples) + edges)
    out = vol.data.copy()
    for i in range(0, n_inlines, step):
        rows = min(step, n_inlines - i)
        lo, hi = max(i - half, 0), min(i + rows + half, n_inlines)
        inner = (slice(lo - i + half, hi - i + half), slice(half, half + n_xlines),
                 slice(half, half + n_samples))
        slab.fill(np.inf)
        np.copyto(slab[inner], vol.data[lo:hi], where=vol.mask[lo:hi])
        valid.fill(0)
        valid[inner] = vol.mask[lo:hi]
        # valid neighbours per voxel, by one shifted sum per axis
        counts = valid[:rows + window - 1]
        for axis in range(3):
            n = counts.shape[axis] - window + 1
            counts = sum(counts[(slice(None),) * axis + (slice(s, s + n),)]
                         for s in range(window))
        windows = sliding_window_view(slab[:rows + window - 1], edges)
        cells = buffer[:rows]
        cells[...] = windows
        cells = cells.reshape(windows.shape[:3] + (-1,))
        cells.sort(axis=-1)
        picked = np.take_along_axis(cells, (counts[..., None] - 1) // 2, axis=-1)
        np.copyto(out[i:i + rows], picked[..., 0], where=counts > 0)
    return SeismicVolume(
        inlines=vol.inlines.copy(),
        xlines=vol.xlines.copy(),
        t0_ms=vol.t0_ms,
        dt_ms=vol.dt_ms,
        data=out,
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
