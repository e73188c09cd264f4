"""The zero set of a piecewise-linear scalar grid function in exact ``Fraction`` arithmetic, kept as a test oracle.

``count_zero_components`` decides its count from knot signs alone; this
computes every piece of the zero set exactly and merges the pieces that
touch, so the two reach the count by different routes.
"""

from fractions import Fraction


def zero_components(h) -> list[tuple[Fraction, Fraction]]:
    """The connected components of h's zero set as exact (start, end) pairs, left to right.

    A segment contributes its whole extent when both knot values vanish,
    an end when one does, and its exact root on a strict sign change.
    Pieces come in order, so a piece joins the previous component exactly
    when it starts where that component ends.
    """
    x = [Fraction(float(k)) for k in h.grid[0]]
    v = [Fraction(float(c)) for c in h.values[:, 0]]
    comps: list[list[Fraction]] = []
    for x0, x1, v0, v1 in zip(x, x[1:], v, v[1:]):
        if v0 == 0 and v1 == 0:
            start, end = x0, x1
        elif v0 == 0:
            start = end = x0
        elif v1 == 0:
            start = end = x1
        elif (v0 > 0) != (v1 > 0):
            start = end = x0 + (x1 - x0) * v0 / (v0 - v1)
        else:
            continue
        if comps and start == comps[-1][1]:
            comps[-1][1] = end
        else:
            comps.append([start, end])
    return [(start, end) for start, end in comps]


def count_and_flat(h) -> tuple[int, bool]:
    """The component count and whether some component is an interval."""
    comps = zero_components(h)
    return len(comps), any(end > start for start, end in comps)
