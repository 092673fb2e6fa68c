"""Test helpers for the accountants' shortcuts on a repeated request."""

import math

from rdpmeter.core import RdpCurve


class CountingCurve(RdpCurve):
    """A curve that counts reads of its values."""

    reads = 0

    def __getattribute__(self, name):
        if name == "values":
            type(self).reads += 1
        return super().__getattribute__(name)


def hexes(values):
    return [v.hex() for v in values]


def repeat_sum(start, r, k):
    """k sequential additions of r to start."""
    for _ in range(k):
        start += r
    return start


def drifting_run(bound, end, k):
    """A start total a and a request r such that k sequential additions of
    r to a give exactly `end`, each rounding up by about 0.4 ulp. A
    window's count, taken from exact sums, would then cover a total past
    `bound` but for the slack. a, r and every sum share bound's binade."""
    u = math.ulp(bound)
    r = (2**20 + 0.6) * u
    a = bound - k * r
    a += end - repeat_sum(a, r, k)  # a shift by whole ulps shifts every sum alike
    assert repeat_sum(a, r, k) == end
    return a, r
