"""A plain test-cover search, kept as an oracle for `solve_exact`.

This is the search without buckets, bans or cuts beyond the counting
one: masks built one pair at a time, a coverer list for every pair, and
the pivot chosen by `min` over the bit positions of the missing pairs.
It returns the same plan as the library's search, only more slowly.  Its
greedy incumbent scores every row at every step, with no orbits.
"""

from math import ceil

from resfault.network import FaultMode
from resfault.signatures import reading_classes


def bit_positions(mask):
    out = []
    pos = 0
    while mask:
        if mask & 1:
            out.append(pos)
        mask >>= 1
        pos += 1
    return out


def plain_greedy(table, column_count):
    """Row indices in greedy order, every row scored at every step; None on a stall.

    Each step takes the row giving the most distinct columns of readings
    so far, the earliest on ties; `labels` numbers those columns.
    """
    labels = [0] * column_count
    chosen = []
    while len(set(labels)) < column_count:
        best, best_count = None, len(set(labels))
        for j, row in enumerate(table):
            count = len(set(zip(labels, row)))
            if count > best_count:
                best, best_count = j, count
        if best is None:
            return None
        chosen.append(best)
        ids = {}
        labels = [ids.setdefault(pair, len(ids)) for pair in zip(labels, table[best])]
    return chosen


def pair_masks(table, edge_count):
    """One mask per row: bit k is set iff the k-th pair (i < j, in
    lexicographic order) has different class ids in that row."""
    ne = edge_count
    offsets = []
    acc = 0
    for i in range(ne):
        offsets.append(acc - i - 1)  # pair (i, j) -> acc + (j - i - 1)
        acc += ne - i - 1
    full = (1 << acc) - 1
    masks = []
    for row in table:
        groups = {}
        for j, cid in enumerate(row):
            groups.setdefault(cid, []).append(j)
        same = 0
        for group in groups.values():
            for x in range(len(group)):
                base = offsets[group[x]]
                for y in range(x + 1, len(group)):
                    same |= 1 << (base + group[y])
        masks.append(full & ~same)
    return masks, full


class PlainCover:
    """Masks, one coverer list per pair, and the depth-first search."""

    def __init__(self, table, edge_count):
        self.masks, self.full = pair_masks(table, edge_count)
        self.coverers = {}
        for j, m in enumerate(self.masks):
            for bit in bit_positions(m):
                self.coverers.setdefault(bit, []).append(j)

    def search(self, target, chosen=(), covered=0):
        """First cover found with at most `target` rows extending `chosen`."""
        masks, coverers = self.masks, self.coverers
        if covered == self.full:
            return list(chosen)
        if len(chosen) >= target:
            return None
        missing = self.full & ~covered
        best_single = 0
        reachable = 0
        for m in masks:
            hit = m & missing
            if hit:
                reachable |= hit
                best_single = max(best_single, hit.bit_count())
        if reachable != missing:
            return None
        if ceil(missing.bit_count() / best_single) > target - len(chosen):
            return None
        pivot = min(bit_positions(missing), key=lambda bit: (len(coverers[bit]), bit))
        order = sorted(coverers[pivot], key=lambda j: (-(masks[j] & missing).bit_count(), j))
        for j in order:
            result = self.search(target, [*chosen, j], covered | masks[j])
            if result is not None:
                return result
        return None


def plain_solve(net, candidates=None, mode=FaultMode.REMOVED, first_probe_orbits=None):
    """The measurements `solve_exact` should return; None when infeasible.

    Each target tries the given first probes, then the plain search.
    """
    cands = list(candidates) if candidates is not None else net.measurements()
    table = reading_classes(net, cands, mode)
    cover = PlainCover(table, len(net.edges))
    masks, full = cover.masks, cover.full
    if full == 0:
        return ()
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return None
    greedy = plain_greedy(table, len(net.edges))
    root_lower = max(1, ceil(full.bit_length() / max(m.bit_count() for m in masks)))
    roots = None
    if first_probe_orbits is not None:
        index_of = {m: i for i, m in enumerate(cands)}
        roots = sorted(index_of[m] for m in first_probe_orbits if m in index_of)
    for target in range(root_lower, len(greedy)):
        found = None
        for j in roots or ():
            found = cover.search(target, [j], masks[j])
            if found is not None:
                break
        if found is None:  # every first probe failed: search the whole pool
            found = cover.search(target)
        if found is not None:
            return tuple(cands[j] for j in found)
    return tuple(cands[j] for j in greedy)
