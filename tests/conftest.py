"""Shared builders for compact transaction construction in tests."""

from __future__ import annotations

import dataclasses
import io

import pytest

from entityforge.chain import Block, Transaction
from entityforge.heuristics import HEURISTICS
from entityforge.reuse import ReuseIndex
from entityforge.synth import generate

_TX_COUNTER = [0]


def tx(inputs, outputs, txid=None):
    """Build a Transaction's columns from (script_id, value) pair lists."""
    if txid is None:
        _TX_COUNTER[0] += 1
        txid = f"tx{_TX_COUNTER[0]}"
    return Transaction(
        txid,
        tuple(s for s, _ in inputs),
        tuple(v for _, v in inputs),
        tuple(s for s, _ in outputs),
        tuple(v for _, v in outputs),
    )


def counts(mapping, n=16):
    """Fixed-mode reuse index over ids 0..n-1 with explicit per-script counts, 0 for the rest.

    The index covers more ids than the rule tests use, since a rule reads any id of its
    transaction with no range check."""
    idx = ReuseIndex()
    idx.register(max(n, max(mapping, default=-1) + 1))
    for sid, count in mapping.items():
        idx._counts[sid] = count  # in place: `count` is bound to this list
    return idx


def block(index, *txs):
    """A hand-built block. Its script count is left 0: a `MemorySource` counts its blocks."""
    return Block(index, list(txs), 0)


def generate_text(seed, params):
    """A synthetic stream in memory: (JSONL text, truth, metadata)."""
    buf = io.StringIO()
    truth, meta = generate(seed, params, buf)
    return buf.getvalue(), truth, meta


@pytest.fixture
def proposed_groups(monkeypatch):
    """Every merge group the heuristics propose during the test, in order.

    Each registry entry's `evaluate` is wrapped to record its groups; clear
    the list between runs.
    """
    groups = []
    for name, spec in list(HEURISTICS.items()):

        def evaluate(tx, ctx, evaluate=spec.evaluate):
            proposal = evaluate(tx, ctx)
            groups.extend(proposal.groups)
            return proposal

        monkeypatch.setitem(HEURISTICS, name, dataclasses.replace(spec, evaluate=evaluate))
    return groups


@pytest.fixture
def small_stream_text():
    """Three-block JSONL stream exercising merges and reuse."""
    lines = [
        '{"txid":"t1","block":1,"inputs":[{"script":"pA","value":10},{"script":"pB","value":5}],"outputs":[{"script":"pC","value":14}]}',
        '{"txid":"t2","block":2,"inputs":[{"script":"pC","value":14}],"outputs":[{"script":"pD","value":7},{"script":"pC","value":6}]}',
        '{"txid":"t3","block":4,"inputs":[{"script":"pE","value":9}],"outputs":[{"script":"pF","value":4},{"script":"pG","value":4}]}',
    ]
    return "\n".join(lines) + "\n"
