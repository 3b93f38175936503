"""Ablation over the pluggable storage engine: memory vs WAL.

Measures what the durability layer costs and buys:

* commit throughput — blocks/s through ``Committer.commit_block`` with
  each backend (the WAL pays a serialize+append+flush per block);
* recovery time — reopening a ledger from snapshot+WAL as a function of
  the committed history length, with and without compaction;
* join time vs chain length — bringing a new peer onto the channel by
  replay-from-genesis vs snapshot bootstrap + tail replay.  The state
  is held constant (a fixed key set, updated in place) while the chain
  grows, so replay cost tracks history length while snapshot-bootstrap
  cost tracks state size + the bounded tail.

Results are archived as rendered tables (and, for the throughput and
recovery sweeps, machine-readable JSON) under ``benchmarks/results/``;
the join-time sweep is committed as ``BENCH_storage.json`` at the repo
root (the CI storage-perf-smoke job re-generates and archives it).

Env knobs:

* ``REPRO_BENCH_TX`` — base chain length in blocks for the join-time
  sweep (default 30; the long chain is always 4x the base).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.chaincode.contracts import AssetContract
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter
from repro.storage import WalBackend

from _bench_utils import record, write_bench

BLOCKS = 60


def _network(state_backend: str, state_dir) -> FabricNetwork:
    reset_ca_instance_counter()
    reset_nonce_counter()
    org = Organization("Org1MSP")
    channel = ChannelConfig(channel_id="storechan", organizations=[org])
    channel.deploy_chaincode("assetcc", endorsement_policy="OR('Org1MSP.member')")
    net = FabricNetwork(
        channel=channel,
        state_backend=state_backend,
        state_dir=str(state_dir) if state_backend == "wal" else None,
    )
    net.add_peer("Org1MSP")
    net.install_chaincode("assetcc", AssetContract())
    return net


def _commit_blocks(net: FabricNetwork, count: int) -> float:
    """Commit ``count`` single-tx blocks; returns elapsed seconds."""
    client = net.client("Org1MSP")
    endorser = [net.peers()[0]]
    start = time.perf_counter()
    for i in range(count):
        client.submit_transaction(
            "assetcc", "create_asset", [f"a{i:05d}", "1"],
            endorsing_peers=endorser,
        ).raise_for_status()
    return time.perf_counter() - start


class TestStorageAblation:
    def test_commit_throughput_and_recovery(self, results_dir, tmp_path):
        # Warm-up: the first network pays one-time costs (crypto caches,
        # imports) that would otherwise be billed to the first backend.
        _commit_blocks(_network("memory", tmp_path / "warmup"), BLOCKS)

        rows = []
        for backend_kind in ("memory", "wal"):
            net = _network(backend_kind, tmp_path / backend_kind)
            elapsed = _commit_blocks(net, BLOCKS)
            peer = net.peers()[0]
            assert peer.ledger.height == BLOCKS

            recover_start = time.perf_counter()
            peer.ledger.crash()
            peer.ledger.reopen()
            recovery_s = time.perf_counter() - recover_start
            assert peer.ledger.height == BLOCKS
            assert peer.query_public("assetcc", f"asset:a{BLOCKS - 1:05d}") == b"1"

            rows.append({
                "backend": backend_kind,
                "blocks": BLOCKS,
                "commit_s": round(elapsed, 4),
                "blocks_per_s": round(BLOCKS / elapsed, 1),
                "recovery_ms": round(recovery_s * 1000, 3),
            })

        memory, wal = rows
        overhead = wal["commit_s"] / memory["commit_s"]
        lines = [
            "Ablation — storage engine: commit throughput and recovery",
            f"{'backend':>8} {'blocks':>7} {'commit s':>9} {'blocks/s':>9} {'recovery ms':>12}",
        ]
        for row in rows:
            lines.append(
                f"{row['backend']:>8} {row['blocks']:>7} {row['commit_s']:>9.3f} "
                f"{row['blocks_per_s']:>9.1f} {row['recovery_ms']:>12.3f}"
            )
        lines.append(f"WAL durability overhead: {overhead:.2f}x the in-memory commit path")
        record(results_dir, "ablation_storage", "\n".join(lines))
        (results_dir / "ablation_storage.json").write_text(
            json.dumps({"rows": rows, "wal_overhead_x": round(overhead, 3)}, indent=1)
        )

    @pytest.mark.parametrize("history", [20, 80])
    def test_recovery_time_scales_with_wal_length(self, history, results_dir, tmp_path):
        """Replay cost tracks the un-compacted log; compaction flattens it."""
        backend = WalBackend(tmp_path / f"h{history}", compact_every=10**9)
        for i in range(history):
            backend.put("ns", f"k{i:05d}", b"x" * 64)
        start = time.perf_counter()
        recovered = backend.reopen()
        replay_ms = (time.perf_counter() - start) * 1000
        assert recovered.replayed_records == history

        recovered.compact()
        start = time.perf_counter()
        compacted = recovered.reopen()
        compacted_ms = (time.perf_counter() - start) * 1000
        assert compacted.replayed_records == 0
        assert compacted.count("ns") == history

        path = results_dir / "ablation_storage_recovery.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        data[str(history)] = {
            "replay_ms": round(replay_ms, 3),
            "after_compaction_ms": round(compacted_ms, 3),
        }
        path.write_text(json.dumps(data, indent=1))


# -- join time vs chain length ------------------------------------------------

JOIN_KEYS = 8          # fixed key set: state size is constant as the chain grows
JOIN_SNAPSHOT_EVERY = 10
JOIN_TRIALS = 3        # best-of-N joins per leg (distinct peer names)


def _join_base_blocks(default: int = 30) -> int:
    return int(os.environ.get("REPRO_BENCH_TX", default))


def _grown_network(blocks: int) -> FabricNetwork:
    """A single-org channel with ``blocks`` committed single-tx blocks.

    The workload updates the same ``JOIN_KEYS`` keys in place, so world
    state stays constant-size while the chain (and thus replay cost)
    grows linearly.  One org means the MAJORITY snapshot policy is
    satisfied by the producing peer's own signature, so snapshots seal
    without a countersigning round.
    """
    reset_ca_instance_counter()
    reset_nonce_counter()
    org = Organization("Org1MSP")
    channel = ChannelConfig(channel_id="joinchan", organizations=[org])
    channel.deploy_chaincode("assetcc", endorsement_policy="OR('Org1MSP.member')")
    net = FabricNetwork(
        channel=channel,
        snapshot_every=JOIN_SNAPSHOT_EVERY,
        prune=False,  # keep the full backlog so the replay leg stays runnable
    )
    net.add_peer("Org1MSP")
    net.install_chaincode("assetcc", AssetContract())
    client = net.client("Org1MSP")
    endorser = [net.peers()[0]]
    for i in range(blocks):
        key = f"j{i % JOIN_KEYS:03d}"
        function = "create_asset" if i < JOIN_KEYS else "update_asset"
        client.submit_transaction(
            "assetcc", function, [key, str(i)],
            endorsing_peers=endorser,
        ).raise_for_status()
    return net


def _timed_join(net: FabricNetwork, kind: str, tag: str) -> float:
    """Best-of-``JOIN_TRIALS`` wall seconds to bring up one new peer."""
    best = float("inf")
    for trial in range(JOIN_TRIALS):
        name = f"{kind}-{tag}-{trial}"
        join = net.join_peer if kind == "snap" else net.add_peer
        start = time.perf_counter()
        peer = join("Org1MSP", name=name)
        best = min(best, time.perf_counter() - start)
        assert peer.ledger.height == net.orderer.delivered_count
        assert peer.query_public("assetcc", "asset:j000") is not None
        if kind == "snap":
            assert peer.ledger.blockchain.genesis_offset > 0, (
                "snapshot join fell back to full replay"
            )
    return best


class TestJoinTimeVsChainLength:
    def test_snapshot_bootstrap_flattens_join_time(self, results_dir):
        base = _join_base_blocks()
        chains = [base, 4 * base]
        # Warm-up network: first-run one-time costs (crypto caches).
        _timed_join(_grown_network(JOIN_KEYS + 2), "snap", "warmup")

        rows = []
        for blocks in chains:
            net = _grown_network(blocks)
            source = net.peers()[0]
            assert source.latest_sealed_snapshot() is not None
            replay_s = _timed_join(net, "replay", f"c{blocks}")
            snap_s = _timed_join(net, "snap", f"c{blocks}")
            rows.append({
                "chain_blocks": blocks,
                "replay_join_s": round(replay_s, 5),
                "snapshot_join_s": round(snap_s, 5),
                "snapshot_height": source.latest_sealed_snapshot().manifest.height,
            })

        short, long = rows
        replay_ratio = long["replay_join_s"] / short["replay_join_s"]
        snap_ratio = long["snapshot_join_s"] / short["snapshot_join_s"]
        # What one more block of history adds to a join, per leg.  A ratio
        # of totals also carries each leg's fixed cost (peer start-up, key
        # tables), which is most of a short replay join since verification
        # got cheap; the slope does not.
        added = chains[1] - chains[0]
        replay_per_block = (long["replay_join_s"] - short["replay_join_s"]) / added
        snap_per_block = (long["snapshot_join_s"] - short["snapshot_join_s"]) / added
        long_gap = long["replay_join_s"] / long["snapshot_join_s"]

        lines = [
            "Ablation — join time vs chain length "
            f"(fixed {JOIN_KEYS}-key state, snapshot every {JOIN_SNAPSHOT_EVERY})",
            f"{'chain':>7} {'replay join s':>14} {'snapshot join s':>16}",
        ]
        for row in rows:
            lines.append(
                f"{row['chain_blocks']:>7} {row['replay_join_s']:>14.5f} "
                f"{row['snapshot_join_s']:>16.5f}"
            )
        lines.append(
            f"chain x{chains[1] // chains[0]}: replay join grew {replay_ratio:.2f}x, "
            f"snapshot join grew {snap_ratio:.2f}x"
        )
        lines.append(
            f"per added block: replay {replay_per_block * 1e6:.1f} us, "
            f"snapshot {snap_per_block * 1e6:.1f} us; "
            f"at {chains[1]} blocks replay is {long_gap:.1f}x the snapshot join"
        )
        record(results_dir, "ablation_storage_join", "\n".join(lines))

        payload = {
            "workload": {
                "orgs": 1,
                "keys": JOIN_KEYS,
                "snapshot_every": JOIN_SNAPSHOT_EVERY,
                "chain_blocks": chains,
                "trials": JOIN_TRIALS,
                "policy": "MAJORITY Endorsement (snapshot seal)",
            },
            "metric": "best-of-trials wall seconds to join one new peer",
            "rows": rows,
            "replay_ratio": round(replay_ratio, 3),
            "snapshot_ratio": round(snap_ratio, 3),
            "replay_s_per_added_block": round(replay_per_block, 7),
            "snapshot_s_per_added_block": round(snap_per_block, 7),
            "long_chain_replay_over_snapshot": round(long_gap, 1),
        }
        write_bench("storage", payload)

        # Acceptance gates: snapshot-bootstrap join stays flat while
        # replay-from-genesis pays for every block of history.
        assert snap_ratio <= 1.5, (
            f"snapshot join grew {snap_ratio:.2f}x over a 4x chain (> 1.5x)"
        )
        assert replay_per_block > 0 and replay_per_block >= 10 * snap_per_block, (
            f"an added block costs replay {replay_per_block * 1e6:.1f} us, "
            f"snapshot {snap_per_block * 1e6:.1f} us (< 10x apart)"
        )
        assert long_gap >= 10, (
            f"at {chains[1]} blocks replay is only {long_gap:.1f}x the snapshot join"
        )
