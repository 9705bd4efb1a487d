"""Reference fold of the exact solver, kept to pin the join order of the fast one.

This is the fold as it read each vertex's fan from ``higher_neighbours()``
lists and sliced off its apexes: highest vertex first, each fan's apexes in
ascending order, joined into the leaf (lo, lo + 1).  It folds over the memo
registry it is given, with the package's memo classes and cap, so a fresh
registry of its own interns the same classes in the same order as the
package's fold does on a fresh registry, provided both join the same pairs in
the same order.
"""

from __future__ import annotations

from mopdom import domination


def fold(memos, modes, up, top):
    """``(memo, root class, packed offsets, back-pointers)`` for the polygon
    whose fans are ``up``, over ``memos[modes]``; ``top`` ends up holding each
    vertex's top side."""
    classes = memos[modes]
    if len(classes.joins) > domination._MEMO_CAP:
        classes = memos[modes] = domination._Classes(classes.rules)
    joins = classes.joins
    back = []
    offset = 0
    for lo in range(len(top) - 3, -1, -1):  # up[n - 2] is [n - 1]: no apex
        a = top[lo]
        for c in up[lo][:-1]:
            try:
                a, o, bp = joins[a << 32 | top[c]]
            except KeyError:
                a, o, bp = classes.join(a, top[c])
            offset += o
            if bp is not None:
                back.append(bp)
        top[lo] = a
    return classes, top[0], offset, back
