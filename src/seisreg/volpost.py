"""Volume-wide prediction sweep and 3-D median post-filtering.

Both operations are per-voxel independent over immutable inputs, so both
work through the volume in fixed blocks and write each finished block to
their output, a `.svol` file.  Their working memory is set by the block,
not by the volume.  The sweep also reads its inputs by block, so it runs
as well over open `.svol` files as over volumes in memory.  The median is
taken over the valid (unmasked, in-bounds) neighbours including the voxel
itself; boundary and masked neighbours simply shrink the set.
Even-cardinality sets take the lower median so results are deterministic.
A voxel with no valid neighbour at all (inside a masked hole wider than
the window) is itself masked; it stays masked and keeps its input value.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .formats.svol import create_svol
from .formats.volume import Grid, SeismicVolume
from .mlp import ModelBundle
from .resample import block_edges

# Voxels per block of the sweep.  The hidden activations of one block
# (1.3 MB at 10 hidden units) fit in L2.  A power of two, so the sweep's
# `block_edges` give the bits of one call over the whole volume (blocks of
# 6 or 7 rows, or whole inlines, change the last bit).
BLOCK_ROWS = 1 << 14

# Voxels per slab of the filter, and window cells it gathers and sorts at
# once.  It stages and sorts them in two buffers of SORT_CELLS cells, 1 MiB
# each, so that both stay in one core's L2; a trace of more window cells
# than that is gathered alone.
SLAB_VOXELS = 1 << 16
SORT_CELLS = 1 << 17


def predict_volume(bundle: ModelBundle, attrs: list, out) -> None:
    """Apply the trained model voxel-wise over aligned attribute volumes.

    attrs (in-memory volumes or open `.svol` readers) bind to the model's
    inputs by position.  They come checked from `pipeline.open_attributes`:
    one per input, named for it or unnamed, and of one geometry.  The
    output mask is the AND of the input masks (a voxel with any attribute
    missing stays missing).
    The model runs over blocks of `BLOCK_ROWS` flattened voxels, read from
    attrs one block at a time, and each block of the prediction is written
    to the `.svol` file at path `out`.
    """
    first = attrs[0]
    edges = block_edges(first.n_voxels, BLOCK_ROWS)
    with create_svol(out, first, "sand_fraction") as sink:
        for start, stop in zip(edges, edges[1:]):
            blocks = [vol.read(start, stop) for vol in attrs]
            mask = np.logical_and.reduce([m for _, m in blocks])
            predictions = bundle.predict(np.stack([d for d, _ in blocks], axis=1))
            predictions[~mask] = 0.0
            sink.write(start, predictions, mask)


def median_filter_3d(vol: SeismicVolume, window: int, out) -> None:
    """Order-statistic smoothing over a window x window x window neighbourhood.

    For the full 27-point window this picks the 14th largest value;
    shrunken (boundary or masked) neighbourhoods use the lower median of
    whatever is valid, and a voxel with nothing valid keeps its input value.
    The volume is filtered one slab of inlines at a time, each slab at most
    `SLAB_VOXELS` voxels (or one inline, if an inline has more); only that
    slab is ever padded, never the whole volume.  A slab's window cells are
    gathered and sorted a few traces at a time, at most `SORT_CELLS` cells
    (or one trace's, if a trace has more).  Every voxel's window is sorted
    alone, so the bytes do not depend on either size.  Each filtered slab is
    written to the `.svol` file at path `out`.
    """
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    edges = (window,) * 3
    cube = window ** 3
    half = window // 2
    n_inlines, n_xlines, n_samples = vol.data.shape
    plane = n_xlines * n_samples
    step = min(n_inlines, max(1, SLAB_VOXELS // plane))
    # traces per gather, at least one: crosslines of one inline, or whole
    # inlines of the slab
    traces = max(1, SORT_CELLS // (n_samples * cube))
    gather_rows = min(step, max(1, traces // n_xlines))
    gather_xlines = min(n_xlines, traces)
    # one slab of step inlines padded by half a window on every side, refilled
    # for each step: +inf at masked and out-of-bounds cells, and each cell's
    # validity in the narrowest signed type that holds window**3, so that
    # count - 1 = -1 stays representable.  Then, for one gather, the window
    # cells staged with the sample axis last (so that the copy from the slab
    # runs along whole traces), the same cells as a table of one row per
    # voxel, and the flat index of each row's first cell.  Invalid cells
    # sort to the top, so the lower median of k valid values sits at index
    # (k - 1) // 2 of its row.  Ties only swap values that compare equal.
    padded = (step + window - 1, n_xlines + window - 1, n_samples + window - 1)
    slab = np.empty(padded)
    valid = np.empty(padded, dtype=np.min_scalar_type(-cube))
    windows = sliding_window_view(slab, edges).transpose(0, 1, 3, 4, 5, 2)
    gathered = gather_rows * gather_xlines * n_samples * cube
    stage, table = np.empty(gathered), np.empty(gathered)
    firsts = np.arange(0, gathered, cube)
    with create_svol(out, vol, vol.attribute_name) as sink:
        for i in range(0, n_inlines, step):
            rows = min(step, n_inlines - i)
            lo, hi = max(i - half, 0), min(i + rows + half, n_inlines)
            inner = (slice(lo - i + half, hi - i + half),
                     slice(half, half + n_xlines), slice(half, half + n_samples))
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
            ranks = (counts - 1) // 2
            smoothed = vol.data[i:i + rows].copy()
            for r0 in range(0, rows, gather_rows):
                for x0 in range(0, n_xlines, gather_xlines):
                    at = (slice(r0, min(r0 + gather_rows, rows)),
                          slice(x0, x0 + gather_xlines))
                    part = windows[at]
                    shape = part.shape[:2] + (n_samples,)
                    staged = stage[:part.size].reshape(part.shape)
                    staged[...] = part
                    cells = table[:part.size].reshape(shape + (cube,))
                    cells[...] = staged.reshape(shape[:2] + (cube, n_samples)
                                                ).swapaxes(2, 3)
                    cells.sort(axis=-1)
                    picks = firsts[:part.size // cube].reshape(shape) + ranks[at]
                    np.copyto(smoothed[at], table.take(picks),
                              where=counts[at] > 0)
            sink.write(i * plane, smoothed, vol.mask[i:i + rows])


def heatmap_csv(grid: Grid, inline: int) -> str:
    """Inline section as a CSV heatmap: one row per time sample, one column
    per crossline (masked voxels empty).  Reads only that inline."""
    i = grid.inline_index(inline)
    section = (len(grid.xlines), grid.n_samples)
    plane = section[0] * section[1]
    data, mask = (a.reshape(section) for a in grid.read(i * plane, (i + 1) * plane))
    lines = ["time_ms," + ",".join(f"xline_{x}" for x in grid.xlines)]
    for k, t in enumerate(grid.times_ms):
        cells = [
            f"{data[j, k]:.6g}" if mask[j, k] else ""
            for j in range(len(grid.xlines))
        ]
        lines.append(f"{t:.6g}," + ",".join(cells))
    return "\n".join(lines) + "\n"
