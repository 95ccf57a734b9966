"""Connected-component labelling of 2-D masks from row runs, in numpy.

``label`` and ``find_objects`` return exactly what ``scipy.ndimage``'s
functions of the same names return for a 2-D mask and the 3x3 cross or
square structure: the same int32 labels, numbered in raster order of each
component's first pixel, the same count and the same bounding-box slices.

``label`` is the run-based two-scan method of He, Chao and Suzuki (IEEE TIP
2008) with the scans done as whole-array passes: the mask's row runs are
found in one pass; each run is joined to the runs it touches in the row
above (through a corner too for 8-connectivity), found by binary search;
the joins are resolved by hooking each tree's root to the smaller root and
pointer jumping; and the labels are painted back run by run.
"""

import numpy as np

# structure (4- or 8-connectivity) -> whether runs touching at a corner join
_CORNER = {
    np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool).tobytes(): 0,
    np.ones((3, 3), dtype=bool).tobytes(): 1,
}


def _changes(array):
    """``(flat, changes)``: the 2-D array with a zero column added on each
    side of every row, flattened, and the indices i where flat[i] differs
    from flat[i + 1], in raster order.

    With ``stride`` = width + 2, a run of one value in row r covering columns
    s to e - 1 starts at change r * stride + s and ends at change
    r * stride + e; no run spans two rows.
    """
    h, w = array.shape
    padded = np.zeros((h, w + 2), dtype=array.dtype)
    padded[:, 1:-1] = array
    flat = padded.ravel()
    return flat, np.flatnonzero(flat[1:] != flat[:-1])


def _roots(parent):
    """Each node's root in a forest of n nodes, a root being its own parent.

    Each pointer jump doubles the distance a node has moved towards its
    root, and no path is n nodes long, so bit_length(n) jumps reach every root.
    """
    for _ in range(parent.size.bit_length()):
        parent = parent[parent]
    return parent


def label(mask, structure):
    """Label the connected components of a 2-D mask.

    ``structure`` is the 3x3 cross (4-connectivity) or the 3x3 square
    (8-connectivity), as for ``scipy.ndimage.label``. Returns
    ``(labels, count)``: an int32 array of the mask's shape holding 0 on
    background and 1 to ``count`` on the components, numbered in raster
    order of their first pixels.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"label takes a 2-D mask, got {mask.ndim} dimensions")
    structure = np.asarray(structure, dtype=bool)
    corner = _CORNER.get(structure.tobytes()) if structure.shape == (3, 3) else None
    if corner is None:
        raise ValueError("structure must be the 3x3 cross or the 3x3 square")
    h, w = mask.shape
    stride = w + 2
    _, changes = _changes(mask)
    starts, ends = changes[0::2], changes[1::2]  # each row starts and ends in background
    n = starts.size
    if n == 0:
        return np.zeros((h, w), dtype=np.int32), 0
    # the runs of the row above that a run touches are one index range
    # [lo, hi): those ending after its start and starting before its end,
    # each widened by a column for corner contact
    lo = np.searchsorted(ends, starts - (stride + corner), side="right")
    hi = np.searchsorted(starts, ends - (stride + 1 - corner), side="right")
    touched = hi - lo
    parent = np.arange(n)
    joined = touched > 0
    parent[joined] = lo[joined]  # each run hangs from the first run it touches
    parent = _roots(parent)
    # the other runs it touches: the joins that can merge two trees
    if (touched > 1).any():
        extra = np.maximum(touched - 1, 0)
        below = np.repeat(np.arange(n), extra)
        above = np.arange(below.size) + np.repeat(lo + 1 - (np.cumsum(extra) - extra), extra)
        while True:
            ra, rb = parent[above], parent[below]
            split = ra != rb
            if not split.any():
                break
            ra, rb = ra[split], rb[split]
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            parent = _roots(parent)
    # a root is its component's first run in raster order
    is_root = parent == np.arange(n)
    run_labels = np.cumsum(is_root, dtype=np.int32)[parent]
    # paint: background gaps and runs alternate along the flat mask; a
    # change's index there is its padded one less two edge columns a row
    bounds = np.empty(2 * n + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, h * w
    bounds[1:-1] = changes - 2 * (changes // stride)
    values = np.zeros(2 * n + 1, dtype=np.int32)
    values[1::2] = run_labels
    return np.repeat(values, np.diff(bounds)).reshape(h, w), int(is_root.sum())


def find_objects(labels):
    """Bounding box of each label of a 2-D array of non-negative ints.

    As ``scipy.ndimage.find_objects``: a list with one entry per label from
    1 to the largest, a ``(row slice, column slice)`` tuple, or None for a
    label absent from the array.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"find_objects takes a 2-D array, got {labels.ndim} dimensions")
    h, w = labels.shape
    count = int(labels.max()) if labels.size else 0
    if count <= 0:
        return []
    stride = w + 2
    flat, changes = _changes(labels)
    # every row ends in a zero, so each run of a label ends at the next change
    values = flat[changes + 1]
    seg = np.flatnonzero(values > 0)
    values = values[seg]
    starts, ends = changes[seg], changes[seg + 1]
    rows = starts // stride
    cols = starts - rows * stride
    y0 = np.full(count + 1, h)
    y1 = np.full(count + 1, -1)
    x0 = np.full(count + 1, w)
    x1 = np.zeros(count + 1, dtype=np.intp)
    np.minimum.at(y0, values, rows)
    np.maximum.at(y1, values, rows)
    np.minimum.at(x0, values, cols)
    np.maximum.at(x1, values, cols + (ends - starts))
    return [
        (slice(a, b + 1), slice(c, d)) if b >= 0 else None
        for a, b, c, d in zip(y0[1:].tolist(), y1[1:].tolist(), x0[1:].tolist(), x1[1:].tolist())
    ]
