"""Glue a small piece into a z-knotted host and keep z-knottedness.

A special pair is two type-II edges sharing a vertex whose four passes
interleave along the host's single zigzag.  Splitting the host open along
the pair and gluing in a two- or four-zigzag piece produces a larger
z-knotted triangulation, and the new zigzag can be written down in
advance from the cut segments of both sides.
"""

from zigzags import (
    bipyramid,
    bipyramid_canonical_zorientation,
    classify,
    find_piece_pairs,
    find_special_pairs,
    glue,
    plan_gluing,
)

host = classify(bipyramid(3, "L."), bipyramid_canonical_zorientation(3, "L."))
pairs = find_special_pairs(host)
print(f"host: 3-gonal bipyramid, {len(pairs)} special pairs")
for p in pairs:
    print(f"  {'-'.join(p.e1)} / {'-'.join(p.e2)} at {p.shared_vertex}")

piece = classify(bipyramid(4, "R."), bipyramid_canonical_zorientation(4, "R."))
# the first piece pair whose edges point the way the host pair's do
host_site, piece_site = plan_gluing(host, pairs[0], piece, find_piece_pairs(piece))
print(f"\npiece: 4-gonal bipyramid ({piece_site.kind})")

# glue verifies the result and returns its classification
cls = glue(host_site, piece_site)
glued, glued_tau = cls.triangulation, cls.orientation
print("\nglued result:")
print(f"  V={len(glued.vertices)} E={len(glued.edges)} F={len(glued.faces)}")
print(f"  zigzags: {len(glued_tau.zigzags)} (length {len(glued_tau.chosen[0])})")
print(f"  homogeneous: {cls.homogeneous}")
print(f"  type-I vertices: {sorted(cls.type_i_vertices)}")
