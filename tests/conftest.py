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


def counts(mapping):
    """Fixed-mode reuse index with explicit per-script counts."""
    idx = ReuseIndex()
    idx._counts = [mapping.get(sid, 0) for sid in range(max(mapping, default=-1) + 1)]
    return idx


def block(index, *txs):
    return Block(index, list(txs))


def generate_text(seed, params):
    """A synthetic stream in memory: (JSONL text, truth, metadata)."""
    buf = io.StringIO()
    _, truth, meta = generate(seed, params, buf)
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
