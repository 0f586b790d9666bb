"""What each per-layer metric is expected to move.

For each per-layer metric of BENCHMARK.json: the end-to-end metric and
workload it should move, so that a later change to one layer can be
judged against the prediction.  The traced record carries this map.
"""

LAYER_MAP = {
    "cli.self_share": "ops_per_s on cli-batch",
    "group_core.GroupContext.calls_per_op": "ops_per_s on cli-batch, mostly at genus 16",
    "group_core.GroupContext.share": "ops_per_s on cli-batch, mostly at genus 16",
    "group_core.parse_word.us_per_token": "ops_per_s on cli-batch",
    "group_core.parse_word.share": "ops_per_s on cli-batch",
    "group_core.format_word.share": "ops_per_s on cli-batch",
    "rewrite.normalize.ns_per_letter": "ops_per_s on word-problem, secondarily on cli-batch",
    "rewrite.normalize.slope": "ops_per_s on word-problem",
    "rewrite.nf.calls_per_op": "latency_p50_ms on long-conjugacy",
    "rewrite.nf.share": "latency_p50_ms on long-conjugacy",
    "rewrite.is_cyclically_irreducible.calls_per_decompose":
        "latency_p50_ms on powers-special",
    "powers.power_decompose.self_share":
        "latency_p50_ms and latency_tail_ms on powers-special; flat on long-conjugacy",
    "powers.power_decompose.slope":
        "latency_p50_ms and latency_tail_ms on powers-special; flat on long-conjugacy",
    "conjugacy.class_nf.self_share":
        "latency_p50_ms, latency_tail_ms and peak_rss_mb on long-conjugacy",
    "conjugacy.class_nf.slope":
        "latency_p50_ms, latency_tail_ms and peak_rss_mb on long-conjugacy",
    "conjugacy.verify.calls_per_op": "latency on long-conjugacy",
    "conjugacy.verify.share": "latency on long-conjugacy",
    "oracle.dehn_reduce.ns_per_letter": "oracle_ops_per_s on word-problem",
    "oracle.dehn_reduce.slope": "oracle_ops_per_s on word-problem",
    "oracle.dehn_reduce.share": "oracle_ops_per_s on word-problem",
    "presentations.translate.ns_per_letter": "ops_per_s on word-problem (small effect)",
    "trace.overhead": "none: untraced over traced ops_per_s",
}
