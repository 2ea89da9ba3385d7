"""The library's layers as the benchmark sees them, and what should move.

TRACED lists every public function or method the traced run wraps, as
(metric name, module, attribute).  A metric name is the layer (module) and
the function; constructors are named after their class.

LAYER_MOVES records, before any optimisation is written, which end-to-end
metric each per-layer metric should move and on which workload.  A
performance change cites an entry by name and predicts no change for every
workload the entry does not list.
"""

TRACED = (
    ("triangulation.parse_triangulation", "triangulation", "parse_triangulation"),
    ("triangulation.Triangulation", "triangulation", "Triangulation.__init__"),
    ("triangulation.validate", "triangulation", "Triangulation.validate"),
    ("triangulation.common_face", "triangulation", "Triangulation.common_face"),
    ("triangulation.vertex_link", "triangulation", "Triangulation.vertex_link"),
    ("engine.enumerate_zigzags", "engine", "enumerate_zigzags"),
    ("engine.zigzag_successor", "engine", "zigzag_successor"),
    ("engine.Zigzag", "engine", "Zigzag.__post_init__"),
    ("engine.Zigzag.occurrences", "engine", "Zigzag.occurrences"),
    ("engine.classify", "engine", "classify"),
    ("engine.is_homogeneous", "engine", "is_homogeneous"),
    ("engine.face_shadow", "engine", "face_shadow"),
    ("eulerian.extract_directed_embedding", "eulerian", "extract_directed_embedding"),
    ("eulerian.triangulate_embedding", "eulerian", "triangulate_embedding"),
    ("eulerian.validate_embedding", "eulerian", "validate_embedding"),
    ("eulerian.round_trip_check", "eulerian", "round_trip_check"),
    ("eulerian.parse_embedding", "eulerian", "parse_embedding"),
    ("eulerian.serialize_embedding", "eulerian", "serialize_embedding"),
    ("surgery.find_special_pairs", "surgery", "find_special_pairs"),
    ("surgery.find_piece_pairs", "surgery", "find_piece_pairs"),
    ("surgery.resolve_site", "surgery", "resolve_site"),
    ("surgery.glue", "surgery", "glue"),
    ("surgery.predict_glued_zigzag", "surgery", "predict_glued_zigzag"),
    ("surgery.check_compatibility", "surgery", "check_compatibility"),
    ("generators.tree_build", "generators", "tree_build"),
    ("generators.bipyramid", "generators", "bipyramid"),
    ("generators.bipyramid_canonical_zorientation", "generators", "bipyramid_canonical_zorientation"),
    ("cli.analyze_report", "cli", "analyze_report"),
)

# Counts and ratios recorded at the same boundaries (see tracing.Tracer).
EXTRA = (
    ("engine.all_z_orientations.yielded", "count"),
    ("engine.orientation_hit_ratio", "ratio"),
    ("surgery.resolve_site.failed", "count"),
    ("surgery.resolve_site.useful_ratio", "ratio"),
    ("surgery.check_compatibility.rejected", "count"),
)

LAYER_MOVES = {
    "analysis-reuse": {
        "per_layer": (
            "engine.classify", "engine.is_homogeneous", "engine.face_shadow",
            "surgery.resolve_site", "surgery.resolve_site.useful_ratio",
            "engine.Zigzag.occurrences", "cli.analyze_report.self_s",
        ),
        "end_to_end": ("jobs_per_s", "job_ms_p90"),
        "moves": {"pair-scan": "most", "tree-build": "less", "census": "barely"},
    },
    "enumeration-and-rebuild": {
        "per_layer": (
            "engine.enumerate_zigzags", "engine.zigzag_successor",
            "triangulation.Triangulation", "triangulation.validate", "surgery.glue",
            "generators.bipyramid_canonical_zorientation",
        ),
        "end_to_end": ("job_ms_p90", "jobs_per_s"),
        "moves": {"tree-build": "yes", "census": "large inputs", "pair-scan": "no"},
    },
    "orientation-search-and-eulerian": {
        "per_layer": (
            "engine.all_z_orientations.yielded", "engine.orientation_hit_ratio", "eulerian.*",
        ),
        "end_to_end": ("jobs_per_s", "job_ms_p50", "job_ms_p90"),
        "moves": {"census": "yes", "tree-build": "no", "pair-scan": "no"},
    },
    "caches": {
        "per_layer": (),
        "end_to_end": ("peak_rss_mb", "setup_s"),
        "moves": {
            "tree-build": "peak_rss_mb; setup_s where filled",
            "pair-scan": "peak_rss_mb; setup_s where filled",
            "census": "peak_rss_mb; setup_s where filled",
        },
    },
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    units["trace.overhead"] = "ratio"
    units["fit.faces_slope"] = "1"
    return units
