"""Hand-written zigzag walks of the bipyramid BP(n): an oracle for
enumeration and for the canonical z-orientation.

The walks are written down from the shape of BP(n) alone; only the Zigzag
value type and make_pass come from the package.
"""

from __future__ import annotations

from zigzags import Zigzag, make_pass


def walk_zigzag(vertices: list[str]) -> Zigzag:
    assert vertices[0] == vertices[-1], "walk must close up"
    cycle = vertices[:-1]
    return Zigzag(tuple(make_pass(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))))


def example_zigzag_walks(n: int, prefix: str = "") -> tuple[Zigzag, ...]:
    """Directed zigzags of BP(n), written down as closed vertex walks.

    Odd-base blocks read apex, 2j+1, 2j+2 and even-base blocks apex, 2j+2,
    2j+3 with apexes alternating; the three census shapes stitch these rows
    differently.
    """
    a, b = f"{prefix}a", f"{prefix}b"
    other = {a: b, b: a}
    base = lambda i: f"{prefix}{(i - 1) % n + 1}"
    k = n // 2

    def odd_blocks(start: str) -> list[str]:
        out = []
        cur = start
        for j in range(k):
            out += [cur, base(2 * j + 1), base(2 * j + 2)]
            cur = other[cur]
        return out

    def even_blocks(start: str) -> list[str]:
        out = []
        cur = start
        for j in range(k):
            out += [cur, base(2 * j + 2), base(2 * j + 3)]
            cur = other[cur]
        return out

    def apex_after(start: str) -> str:
        # the apex following k alternating blocks started at start
        return start if k % 2 == 0 else other[start]

    if n % 2 == 1:
        def row1(start: str) -> list[str]:
            return odd_blocks(start) + [apex_after(start), base(n), base(1)]

        def row2(start: str) -> list[str]:
            return [base(1)] + even_blocks(start) + [apex_after(start)]

        second = a if apex_after(a) == b else b  # row2 must start where row1's apex run resumes
        walk = row1(a)
        for row in (row2(second), row1(b), row2(other[second])):
            assert walk[-1] == row[0]
            walk += row[1:]
        assert walk[-1] == walk[0]
        return (walk_zigzag(walk),)

    if k % 2 == 1:
        def stitched(blocks) -> Zigzag:
            walk = blocks(a) + [apex_after(a)]
            row = blocks(b) + [apex_after(b)]
            assert walk[-1] == row[0]
            walk += row[1:]
            assert walk[-1] == walk[0]
            return walk_zigzag(walk)

        return (stitched(odd_blocks), stitched(even_blocks))

    def single(blocks, start: str) -> Zigzag:
        walk = blocks(start)
        return walk_zigzag(walk + [walk[0]])

    return (
        single(odd_blocks, a),
        single(odd_blocks, b),
        single(even_blocks, a),
        single(even_blocks, b),
    )


def bipyramid_oracle_zigzags(n: int, prefix: str = "") -> tuple[Zigzag, ...]:
    """Canonical forms of the hand-written BP(n) zigzags, sorted."""
    return tuple(sorted((z.canonical() for z in example_zigzag_walks(n, prefix)),
                        key=lambda z: z.passes))
