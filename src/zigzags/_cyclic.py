"""Helpers for cyclic sequences of comparable items."""

__all__ = ["least_rotation_index", "least_rotation"]


def least_rotation_index(seq) -> int:
    """Index of the lexicographically least rotation.

    A least rotation starts at an occurrence of the least item.  When that
    item occurs at most twice, which holds for every zigzag of a
    triangulation (each edge is passed twice in all), the candidate
    rotations are compared directly; otherwise Booth's algorithm runs.
    Either way it is O(n); items only need to support == and <.
    """
    n = len(seq)
    if n == 0:
        return 0
    s = tuple(seq)
    m = min(s)
    i = s.index(m)
    count = s.count(m)
    if count == 1:
        return i
    if count == 2:
        j = s.index(m, i + 1)
        return i if s[i:] + s[:i] <= s[j:] + s[:j] else j
    return _booth(s)


def _booth(s: tuple) -> int:
    """Booth's algorithm: the least rotation's index in O(n)."""
    n = len(s)
    s = s + s
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % n


def least_rotation(seq) -> tuple:
    """The lexicographically least rotation of seq, as a tuple."""
    seq = tuple(seq)
    i = least_rotation_index(seq)
    return seq[i:] + seq[:i]
