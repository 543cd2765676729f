"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``run.py --write-manifest``) and the smoke test checks the two agree, so a
metric is declared exactly once.  Every later performance claim must use
these names.

Each per-layer metric also says which end-to-end metric it is expected to
move, on which workload (``moves``); for every pairing not listed the
prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["COMMAND", "END_TO_END", "LAYERS", "PATHS", "PER_LAYER",
           "RUN_SECONDS", "WORKLOADS", "manifest"]

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: seconds of timed region per run (the driver passes it back as --seconds)
RUN_SECONDS = 15

#: name -> the one-line reason the workload exists
WORKLOADS = {
    "register_stream": (
        "packed, tree-folded, noise-precomputed secure registration streamed "
        "in 64-client chunks: crypto does ~all of the work, so noise, packing "
        "and fold changes show here with all their cost counted"),
    "select_secure": (
        "SecureDubheSelector.select on the unpacked per-component path "
        "(inline r^n, flat fold, one decrypt per try): the same crypto layer "
        "used the other way, so a packing-path gain that taxes it shows"),
    "select_scale": (
        "plaintext DubheSelector at N=100000, K=1000: drift epochs of one "
        "re-registration beside 20 selections, core does ~100%, writes sit "
        "beside reads"),
    "train_inproc": (
        "full in-process rounds (select, vectorized training, FedAvg, evaluate) "
        "over 1000 lazy clients: nn+federated+data do ~all of it, crypto, "
        "transport and ledger nothing - the bypass for any wire change"),
    "round_socket_ledger": (
        "full rounds over loopback TCP to 8 peers with a ledger commit per "
        "round: transport ~80%, ledger ~10%; one driver keeps one round in "
        "flight and at most K=4 peers are ever busy"),
}

#: layer names are this repository's package names (plus the benchmark's own)
LAYERS = ("crypto", "core", "data", "federated", "nn", "transport", "ledger",
          "bench")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: float = 0.0
    #: per-layer only: (end-to-end metric, workload) pairs it should move
    moves: tuple = ()


# Timings are net of hypervisor steal on the run's one CPU (e2e_harness.py).
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median time to build inputs, keys, federation, server and fleet "
           "and run the first (cold) op; reference runs are excluded",
           bound=0.25),
    Metric("ops_per_s", "1/s", "higher",
           "ops per second of timed region, median over the run's blocks",
           bound=0.24),
    Metric("op_ms_p50", "ms", "lower",
           "median latency of one op over every op of the run", bound=0.24),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the run's own fresh process", bound=0.10),
)

_REG = "register_stream"
_SEC = "select_secure"
_SCALE = "select_scale"
_TRAIN = "train_inproc"
_SOCK = "round_socket_ledger"


def _m(name, unit, better, doc, *moves):
    return Metric(name, unit, better, doc, moves=tuple(moves))


# `_s` metrics are seconds per block (a block is a fixed number of ops, see
# README), counts are per block; both are medians over the traced blocks.
PER_LAYER = (
    # -- crypto ----------------------------------------------------------------
    _m("crypto.keygen_s", "s", "lower", "Paillier key generation",
       ("ops_per_s", _REG)),
    _m("crypto.noise_refill_s", "s", "lower",
       "NoisePool.refill: precomputing r^n mod n^2",
       ("ops_per_s", _REG), ("op_ms_p50", _REG)),
    _m("crypto.noise_terms", "count", "lower", "r^n terms precomputed",
       ("ops_per_s", _REG)),
    _m("crypto.encrypt_s", "s", "lower",
       "encrypt_many / encrypt_one (inline noise included)",
       ("ops_per_s", _REG), ("op_ms_p50", _SEC)),
    _m("crypto.encrypt_ciphertexts", "count", "lower", "ciphertexts produced",
       ("ops_per_s", _REG), ("op_ms_p50", _SEC)),
    _m("crypto.ciphertexts_per_vector", "count", "lower",
       "ciphertexts per encrypted vector",
       ("ops_per_s", _REG), ("op_ms_p50", _SEC)),
    _m("crypto.expansion_factor", "ratio", "lower",
       "ciphertext bytes over plaintext bytes (ProtocolStats)",
       ("ops_per_s", _REG)),
    _m("crypto.fold_s", "s", "lower",
       "server-side ciphertext folding (receive + aggregate)",
       ("op_ms_p50", _SEC)),
    _m("crypto.fold_vectors", "count", "lower", "vectors folded",
       ("op_ms_p50", _SEC)),
    _m("crypto.fold_depth", "count", "lower",
       "mean longest chain of dependent additions per aggregate",
       ("op_ms_p50", _SEC)),
    _m("crypto.decrypt_s", "s", "lower", "vector decryption",
       ("op_ms_p50", _SEC)),
    _m("crypto.decrypt_ciphertexts", "count", "lower", "ciphertexts decrypted",
       ("op_ms_p50", _SEC)),
    # -- core ------------------------------------------------------------------
    _m("core.register_batch_s", "s", "lower",
       "RegistryCodebook.register_batch", ("ops_per_s", _SCALE)),
    _m("core.register_batch_cold_s", "s", "lower",
       "the first register_batch call of the fresh process",
       ("setup_s", _SCALE), ("setup_s", _TRAIN)),
    _m("core.probabilities_s", "s", "lower", "participation_probabilities",
       ("ops_per_s", _SCALE)),
    _m("core.refresh_s", "s", "lower",
       "DubheSelector.refresh_registrations (children included)",
       ("ops_per_s", _SCALE)),
    _m("core.selector_init_s", "s", "lower",
       "selector construction, median over the run's set-ups",
       ("setup_s", _SEC), ("setup_s", _SCALE), ("setup_s", _TRAIN)),
    _m("core.select_s", "s", "lower", "selector.select (children included)",
       ("ops_per_s", _SCALE), ("op_ms_p50", _SEC)),
    _m("core.select_tries", "count", "lower", "tentative selections drawn",
       ("ops_per_s", _SCALE), ("op_ms_p50", _SEC)),
    _m("core.stream_tracemalloc_peak_mb", "MB", "lower",
       "tracemalloc peak of one extra, untimed registration stream",
       ("peak_rss_mb", _REG)),
    # -- data ------------------------------------------------------------------
    _m("data.generate_s", "s", "lower", "SyntheticImageGenerator.generate",
       ("ops_per_s", _TRAIN)),
    _m("data.generate_calls", "count", "lower", "client datasets generated",
       ("ops_per_s", _TRAIN)),
    _m("data.cache_hit_ratio", "ratio", "higher",
       "DatasetCache hits over lookups", ("ops_per_s", _TRAIN)),
    # -- federated / nn --------------------------------------------------------
    _m("federated.local_update_s", "s", "lower",
       "LocalUpdateExecutor.run_round (children included)",
       ("ops_per_s", _TRAIN), ("op_ms_p50", _TRAIN)),
    _m("federated.aggregate_s", "s", "lower", "FederatedServer.aggregate",
       ("ops_per_s", _TRAIN), ("op_ms_p50", _SOCK)),
    _m("federated.evaluate_s", "s", "lower", "FederatedServer.evaluate",
       ("ops_per_s", _TRAIN), ("op_ms_p50", _SOCK)),
    _m("federated.fallback_rounds", "count", "lower",
       "rounds that fell back to a slower back-end", ("ops_per_s", _TRAIN)),
    _m("federated.workspace_builds", "count", "lower",
       "cohort workspaces built", ("ops_per_s", _TRAIN)),
    _m("nn.local_steps_per_s", "1/s", "higher",
       "local optimisation steps per second of training time",
       ("ops_per_s", _TRAIN), ("op_ms_p50", _TRAIN)),
    # -- transport -------------------------------------------------------------
    _m("transport.run_round_s", "s", "lower",
       "SocketTransport.run_round: notices out, deltas back",
       ("ops_per_s", _SOCK), ("op_ms_p50", _SOCK)),
    _m("transport.broadcast_s", "s", "lower",
       "probability and round-result broadcasts",
       ("ops_per_s", _SOCK), ("op_ms_p50", _SOCK)),
    _m("transport.peer_train_s", "s", "lower",
       "local training on the peers' threads (overlaps run_round)",
       ("op_ms_p50", _SOCK)),
    _m("transport.encode_delta_us", "us", "lower",
       "encode_message on the workload's ModelDelta", ("op_ms_p50", _SOCK)),
    _m("transport.decode_delta_us", "us", "lower",
       "decode_message on the workload's ModelDelta", ("op_ms_p50", _SOCK)),
    _m("transport.frames_per_round", "count", "lower",
       "protocol frames both ways, heartbeats excluded", ("op_ms_p50", _SOCK)),
    _m("transport.wire_bytes_per_round", "bytes", "lower",
       "frame bytes both ways, heartbeats excluded", ("op_ms_p50", _SOCK)),
    _m("transport.overhead_ms_per_round", "ms", "lower",
       "socket round p50 minus in-process sequential p50, same federation",
       ("op_ms_p50", _SOCK)),
    _m("transport.reconnects", "count", "lower", "peer reconnections",
       ("op_ms_p50", _SOCK)),
    _m("transport.duplicate_deltas", "count", "lower",
       "ModelDelta retransmits ignored", ("op_ms_p50", _SOCK)),
    _m("transport.decode_failures", "count", "lower", "undecodable frames",
       ("op_ms_p50", _SOCK)),
    # -- ledger ----------------------------------------------------------------
    _m("ledger.commit_s", "s", "lower",
       "RunLedger.commit_round (children included)", ("op_ms_p50", _SOCK)),
    _m("ledger.commits", "count", "lower", "rounds committed",
       ("op_ms_p50", _SOCK)),
    _m("ledger.bytes_per_round", "bytes", "lower",
       "ledger file growth per committed round", ("op_ms_p50", _SOCK)),
    _m("ledger.checkpoint_encode_s", "s", "lower",
       "state_to_bytes + state_sha256", ("op_ms_p50", _SOCK)),
    # -- what a user sees, but not on every workload or not steady over seeds --
    _m("wire.bytes_per_op", "bytes", "lower",
       "exact ciphertext bytes up + down (ProtocolStats) or frame bytes both "
       "ways, per op", ("ops_per_s", _REG), ("op_ms_p50", _SEC),
       ("op_ms_p50", _SOCK)),
    _m("quality.selection_emd_mean", "ratio", "lower",
       "mean ||p_o - p_u||_1 of the chosen cohorts (paper Fig. 9)",
       ("op_ms_p50", _SEC), ("ops_per_s", _SCALE)),
    _m("quality.final_accuracy", "ratio", "higher",
       "test accuracy after the last round of a block",
       ("ops_per_s", _TRAIN), ("ops_per_s", _SOCK)),
    # -- the benchmark itself ----------------------------------------------------
    _m("bench.op_failure_rate", "ratio", "lower", "failed over attempted ops",
       ("ops_per_s", _REG)),
    _m("bench.ops_per_block", "count", "higher",
       "ops in one block, the unit of the per-block figures above",
       ("ops_per_s", _REG)),
    _m("bench.op_ms_p95", "ms", "lower",
       "95th percentile op latency (not gated: it does not repeat)",
       ("op_ms_p50", _TRAIN)),
    _m("bench.op_samples", "count", "higher",
       "latency samples behind op_ms_p95", ("op_ms_p50", _TRAIN)),
    _m("bench.trace_overhead_pct", "%", "lower",
       "median traced op latency over median untraced, minus one",
       ("ops_per_s", _TRAIN)),
) + tuple(
    _m(f"share.{layer}_pct", "%", "lower",
       f"self time of the {layer} layer as a share of the traced wall",
       ("ops_per_s", workload))
    for layer, workload in (
        ("crypto", _REG), ("core", _SCALE), ("data", _TRAIN),
        ("federated", _TRAIN), ("nn", _TRAIN), ("transport", _SOCK),
        ("ledger", _SOCK), ("bench", _SCALE))
)

#: per-block seconds metric -> the span it sums
BLOCK_SPANS = {
    name: name[:-2] for name in (
        "crypto.keygen_s", "crypto.noise_refill_s", "crypto.encrypt_s",
        "crypto.fold_s", "crypto.decrypt_s", "core.register_batch_s",
        "core.probabilities_s", "core.refresh_s", "core.select_s",
        "data.generate_s", "federated.local_update_s",
        "federated.aggregate_s", "federated.evaluate_s",
        "transport.run_round_s", "transport.broadcast_s", "ledger.commit_s",
        "ledger.checkpoint_encode_s")
}

#: per-block count metrics; the tracer's counter has the metric's name
BLOCK_COUNTS = (
    "crypto.noise_terms", "crypto.encrypt_ciphertexts", "crypto.fold_vectors",
    "crypto.decrypt_ciphertexts", "core.select_tries", "data.generate_calls",
    "ledger.commits")


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
