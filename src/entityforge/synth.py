"""Synthetic block streams with known script ownership, plus scoring.

The generator simulates users with wallet behaviors (fresh change scripts,
occasional address reuse, forced input consolidations, equal-output mixes,
and a deposit service sweeping customer deposit addresses) and writes the
same JSONL wire format the engine ingests, so everything downstream is
exercised end to end. Ownership ground truth is emitted per script id, the
ids matching first-observation order in the written stream.

Scoring compares a script partition against the truth with pairwise
precision/recall and counts clusters that collapse multiple users together.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from random import Random
from typing import IO

from .chain import ScriptTable
from .clusters import ClusterSet
from .errors import DataError, GenerationError, csv_rows, parse_int

_PROB_FIELDS = (
    "fresh_change_prob",
    "address_reuse_prob",
    "consolidation_rate",
    "coinjoin_rate",
    "multi_pay_rate",
    "deposit_sweep_rate",
    "service_payee_prob",
    "round_value_rate",
)


@dataclass
class GenParams:
    users: int = 10
    blocks: int = 20
    txs_per_block: int = 10
    initial_balance: int = 50_000_000
    endowment_utxos: int = 3  # pre-stream UTXOs per user, spent as external inputs
    fresh_change_prob: float = 0.9
    address_reuse_prob: float = 0.3  # payees receiving on an old address
    consolidation_rate: float = 0.05
    coinjoin_rate: float = 0.05
    multi_pay_rate: float = 0.1
    deposit_sweep_rate: float = 0.0
    service_payee_prob: float = 0.2
    deposit_min_inputs: int = 25
    round_value_rate: float = 0.3
    round_exponent: int = 4

    def __post_init__(self):
        if self.users < 2:
            raise GenerationError("need at least 2 users to make payments")
        if self.blocks < 1 or self.txs_per_block < 1:
            raise GenerationError("need at least one block and one tx per block")
        if self.initial_balance < 0:
            raise GenerationError("initial balance must be non-negative")
        if self.endowment_utxos < 1:
            raise GenerationError("each user needs at least one endowment UTXO")
        if self.deposit_min_inputs < 2:
            raise GenerationError("deposit_min_inputs must be >= 2")
        if self.round_exponent < 2:
            raise GenerationError("round_exponent must be >= 2")
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise GenerationError(f"{name} must be within [0, 1], got {p}")
        if self.consolidation_rate + self.coinjoin_rate > 1.0:
            raise GenerationError("consolidation_rate + coinjoin_rate exceeds 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "GenParams":
        if not isinstance(raw, dict):
            raise GenerationError("generation parameters must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise GenerationError(f"unknown generation parameters: {sorted(unknown)}")
        for name, value in raw.items():
            kind = fields[name].type  # "int" or "float"
            allowed = (int, float) if kind == "float" else (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise GenerationError(f"generation parameter {name} must be {kind}, got {value!r}")
        return cls(**raw)


class _Wallet:
    __slots__ = ("uid", "utxos", "addresses", "pending_deposits")

    def __init__(self, uid: int):
        self.uid = uid
        self.utxos: list[tuple[str, int]] = []
        self.addresses: list[str] = []
        self.pending_deposits: list[tuple[str, int]] = []

    def balance(self) -> int:
        return sum(v for _, v in self.utxos)


class StreamGenerator:
    """Deterministic generator: one seed fully determines the stream."""

    def __init__(self, seed: int, params: GenParams):
        self.rng = Random(seed)
        self.params = params
        self.seed = seed
        self.table = ScriptTable()
        self.truth: dict[int, int] = {}
        self._owners: dict[str, int] = {}
        self._script_n = 0
        self._tx_n = 0
        self.counts = {
            "payments": 0,
            "consolidations": 0,
            "coinjoins": 0,
            "sweeps": 0,
            "transactions": 0,
        }
        self.wallets = [_Wallet(uid) for uid in range(params.users)]
        self.service: _Wallet | None = (
            self.wallets[0] if params.deposit_sweep_rate > 0 else None
        )
        # Endowments model funds acquired before the stream starts: their
        # scripts first appear as inputs, never as in-stream outputs.
        for wallet in self.wallets:
            share = max(1, params.initial_balance // params.endowment_utxos)
            for _ in range(params.endowment_utxos):
                script = self._fresh_address(wallet)
                wallet.utxos.append((script, share + self._non_round(101, 997)))

    # -- script bookkeeping --

    def _new_script(self, wallet_uid: int) -> str:
        text = f"a{self._script_n}"
        self._script_n += 1
        self._owners[text] = wallet_uid
        return text

    def _fresh_address(self, wallet: _Wallet) -> str:
        text = self._new_script(wallet.uid)
        wallet.addresses.append(text)
        return text

    def _receive_address(self, wallet: _Wallet) -> str:
        if wallet.addresses and self.rng.random() < self.params.address_reuse_prob:
            return self.rng.choice(wallet.addresses)
        return self._fresh_address(wallet)

    # -- value helpers --

    def _non_round(self, lo: int, hi: int) -> int:
        v = self.rng.randrange(lo, hi)
        if v % 10 == 0:
            v += self.rng.randrange(1, 10)
        return v

    def _fee(self) -> int:
        return self._non_round(51, 999)

    def _payment_value(self) -> int:
        base = 10**self.params.round_exponent
        if self.rng.random() < self.params.round_value_rate:
            return self.rng.randrange(1, 50) * base
        return self._non_round(base // 2, base * 20)

    # -- tx emission --

    def _emit(self, inputs, outputs) -> dict:
        self._tx_n += 1
        self.counts["transactions"] += 1
        return {
            "txid": f"t{self._tx_n}",
            "inputs": [{"script": s, "value": v} for s, v in inputs],
            "outputs": [{"script": s, "value": v} for s, v in outputs],
        }

    def _pick_payer(self, floor: int) -> _Wallet | None:
        wallets = self.wallets
        for _ in range(20):  # random probing keeps this O(1) per tx
            wallet = wallets[self.rng.randrange(len(wallets))]
            if wallet.balance() >= floor:
                return wallet
        for wallet in wallets:
            if wallet.balance() >= floor:
                return wallet
        return None

    def _pick_payee(self, payer: _Wallet) -> _Wallet:
        if (
            self.service is not None
            and self.service is not payer
            and self.rng.random() < self.params.service_payee_prob
        ):
            return self.service
        idx = self.rng.randrange(len(self.wallets))
        if self.wallets[idx] is payer:
            idx = (idx + 1) % len(self.wallets)
        return self.wallets[idx]

    def _pay_out(self, payee: _Wallet, value: int) -> tuple[str, int]:
        """Route a payment output; service payees use fresh deposit scripts."""
        if payee is self.service:
            script = self._fresh_address(payee)
            payee.pending_deposits.append((script, value))
            return script, value
        script = self._receive_address(payee)
        payee.utxos.append((script, value))
        return script, value

    def _change_out(self, payer: _Wallet, value: int) -> tuple[str, int]:
        if payer.addresses and self.rng.random() >= self.params.fresh_change_prob:
            script = self.rng.choice(payer.addresses)
        else:
            script = self._fresh_address(payer)
        payer.utxos.append((script, value))
        return script, value

    def _payment_tx(self) -> dict | None:
        p = self._payment_value()
        fee = self._fee()
        payer = self._pick_payer(floor=1000)
        if payer is None:
            raise GenerationError("no user has funds left to make a payment")
        payee = self._pick_payee(payer)
        second_payee = None
        if self.rng.random() < self.params.multi_pay_rate:
            candidates = [w for w in self.wallets if w is not payer and w is not payee]
            if candidates:
                second_payee = self.rng.choice(candidates)

        single = None
        need = p + fee + 1
        for idx, (_, value) in enumerate(payer.utxos):
            if value >= need:
                single = idx
                break
        if single is not None:
            script, value = payer.utxos.pop(single)
            inputs = [(script, value)]
            v_in = value
        else:
            # Wasteful selection: target change > payment so that, with every
            # input below p + fee, the minimal-input condition can never hold.
            inputs = []
            v_in = 0
            while payer.utxos and v_in < 2 * p + fee + 1:
                inputs.append(payer.utxos.pop(self.rng.randrange(len(payer.utxos))))
                v_in += inputs[-1][1]
            if v_in < 2 * p + fee + 1:
                p = (v_in - fee - 1) // 2
                if p < 10:
                    payer.utxos.extend(inputs)  # put funds back; tx infeasible
                    return None

        outputs = [self._pay_out(payee, p)]
        if second_payee is not None and p >= 2 and v_in - p - fee > 2 * p:
            # strictly below p: equal-valued outputs would mimic a mix
            outputs.append(self._pay_out(second_payee, p - 1))
        change = v_in - sum(v for _, v in outputs) - fee
        if change > 0:
            sub = 10 ** (self.params.round_exponent - 1)
            taken = {v for _, v in outputs}
            # keep the change non-round and distinct from the payment values;
            # equal-valued outputs would mimic a mix for the default filter
            while change > 7 and (change % sub == 0 or change in taken):
                change -= 7
                fee += 7
            if change > 0 and change not in taken:
                outputs.append(self._change_out(payer, change))
        self.rng.shuffle(outputs)
        self.counts["payments"] += 1
        return self._emit(inputs, outputs)

    def _consolidation_tx(self) -> dict | None:
        """Forced merge of inputs: the selected input set is minimal."""
        candidates: list[int] = []
        payer = None
        for _ in range(20):
            wallet = self.wallets[self.rng.randrange(len(self.wallets))]
            distinct = {}
            for idx, (script, value) in enumerate(wallet.utxos):
                if script not in distinct and value > 2000:
                    distinct[script] = idx
            if len(distinct) >= 2:
                candidates = list(distinct.values())
                payer = wallet
                break
        if payer is None:
            return None
        k = min(len(candidates), self.rng.randrange(2, 5))
        picked = sorted(self.rng.sample(candidates, k), reverse=True)
        inputs = [payer.utxos.pop(i) for i in picked]
        total = sum(v for _, v in inputs)
        least = min(v for _, v in inputs)
        fee = self._non_round(51, max(53, min(999, least // 4)))
        if total - least + 1 >= total - fee:
            payer.utxos.extend(inputs)
            return None
        p = self.rng.randrange(total - least + 1, total - fee)
        change = total - p - fee
        payee = self._pick_payee(payer)
        outputs = [self._pay_out(payee, p)]
        script = self._fresh_address(payer)
        payer.utxos.append((script, change))
        outputs.append((script, change))
        self.rng.shuffle(outputs)
        self.counts["consolidations"] += 1
        return self._emit(inputs, outputs)

    def _coinjoin_tx(self) -> dict | None:
        """Equal-output mix across >= 2 users; breaks common-input ownership."""
        denom = self.rng.randrange(1, 10) * 10**self.params.round_exponent
        participants = []
        seen = set()
        for _ in range(30):
            pos = self.rng.randrange(len(self.wallets))
            if pos in seen:
                continue
            seen.add(pos)
            wallet = self.wallets[pos]
            for idx, (_, value) in enumerate(wallet.utxos):
                if value >= denom + 1000:
                    participants.append((wallet, idx))
                    break
            if len(participants) == 3:
                break
        if len(participants) < 2:
            return None
        inputs = []
        outputs = []
        for wallet, idx in participants:
            script, value = wallet.utxos.pop(idx)
            inputs.append((script, value))
            mixed = self._fresh_address(wallet)
            wallet.utxos.append((mixed, denom))
            outputs.append((mixed, denom))
            change = value - denom - self._fee()
            if change > 0:
                outputs.append(self._change_out(wallet, change))
        self.rng.shuffle(outputs)
        self.counts["coinjoins"] += 1
        return self._emit(inputs, outputs)

    def _sweep_tx(self) -> dict | None:
        service = self.service
        a = self.params.deposit_min_inputs
        if service is None or len(service.pending_deposits) < a:
            return None
        n = min(len(service.pending_deposits), a + self.rng.randrange(0, 5))
        inputs = service.pending_deposits[:n]
        del service.pending_deposits[:n]
        total = sum(v for _, v in inputs)
        value = total - self._fee()
        if value <= 0:
            service.pending_deposits[:0] = inputs  # keep them for a later sweep
            return None
        hot = self._fresh_address(service)
        service.utxos.append((hot, value))
        self.counts["sweeps"] += 1
        return self._emit(inputs, [(hot, value)])

    def _next_tx(self) -> dict | None:
        if self.service is not None and self.rng.random() < self.params.deposit_sweep_rate:
            tx = self._sweep_tx()
            if tx is not None:
                return tx
        r = self.rng.random()
        if r < self.params.coinjoin_rate:
            tx = self._coinjoin_tx()
            if tx is not None:
                return tx
        elif r < self.params.coinjoin_rate + self.params.consolidation_rate:
            tx = self._consolidation_tx()
            if tx is not None:
                return tx
        return self._payment_tx()

    def write(self, sink: IO) -> dict:
        """Generate the whole stream into `sink`; returns run metadata."""
        for block in range(self.params.blocks):
            txs = []
            misses = 0
            while len(txs) < self.params.txs_per_block:
                tx = self._next_tx()
                if tx is not None:
                    txs.append(tx)
                    misses = 0
                    continue
                misses += 1
                if misses > 50:
                    raise GenerationError(
                        "cannot construct a feasible transaction; users are out of funds"
                    )
            for tx in txs:
                tx["block"] = block
                self._register_truth(tx)
                sink.write(
                    json.dumps(
                        {
                            "txid": tx["txid"],
                            "block": tx["block"],
                            "inputs": tx["inputs"],
                            "outputs": tx["outputs"],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return {
            "seed": self.seed,
            "params": asdict(self.params),
            "counts": dict(self.counts, scripts=len(self.table)),
        }

    def _register_truth(self, tx: dict) -> None:
        # Interning order here matches ingestion: inputs, then outputs.
        for side in ("inputs", "outputs"):
            for entry in tx[side]:
                sid = self.table.intern(entry["script"])
                if sid not in self.truth:
                    self.truth[sid] = self._owners[entry["script"]]


def generate(seed: int, params: GenParams, sink: IO) -> tuple[ScriptTable, dict[int, int], dict]:
    """Write a synthetic stream to `sink`; returns (table, truth, metadata)."""
    gen = StreamGenerator(seed, params)
    meta = gen.write(sink)
    return gen.table, gen.truth, meta


def generate_files(prefix: str, seed: int, params: GenParams) -> dict:
    """Write `<prefix>.jsonl`, `<prefix>.truth.csv`, `<prefix>.meta.json`."""
    jsonl = f"{prefix}.jsonl"
    with open(jsonl, "w", encoding="utf-8") as fh:
        _, truth, meta = generate(seed, params, fh)
    truth_path = f"{prefix}.truth.csv"
    with open(truth_path, "w", newline="", encoding="utf-8") as fh:
        write_truth(fh, truth)
    meta_path = f"{prefix}.meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"jsonl": jsonl, "truth": truth_path, "meta": meta_path}


def write_truth(sink: IO, truth: dict[int, int]) -> None:
    writer = csv.writer(sink)
    writer.writerow(["script_id", "user_id"])
    for sid in sorted(truth):
        writer.writerow([sid, truth[sid]])


def read_truth(path: str) -> dict[int, int]:
    truth = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for where, (sid, uid) in csv_rows(fh, ["script_id", "user_id"], f"ground truth {path}"):
            sid = parse_int(sid, where)
            if sid in truth:
                raise DataError(f"{where}: script id {sid} repeats")
            truth[sid] = parse_int(uid, where)
    return truth


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def score(partition: ClusterSet, truth: dict[int, int]) -> dict:
    """Pairwise precision/recall of a partition against ownership truth.

    Precision over zero same-cluster pairs is 1.0 by convention (the atomic
    baseline makes no claims); likewise recall when no user owns two scripts.
    Scripts present in the partition but absent from the truth are ignored;
    truth scripts missing from the partition are an error.
    """
    cluster_of: dict[int, int] = {}
    for sid in truth:
        if not 0 <= sid < partition.num_scripts:
            raise DataError(f"truth script {sid} is not in the partition")
        cluster_of[sid] = partition.find(sid)

    by_cluster: dict[int, int] = {}
    by_user: dict[int, int] = {}
    by_both: dict[tuple[int, int], int] = {}
    users_in_cluster: dict[int, set[int]] = {}
    for sid, uid in truth.items():
        c = cluster_of[sid]
        by_cluster[c] = by_cluster.get(c, 0) + 1
        by_user[uid] = by_user.get(uid, 0) + 1
        by_both[(c, uid)] = by_both.get((c, uid), 0) + 1
        users_in_cluster.setdefault(c, set()).add(uid)

    same_cluster = sum(_pairs(n) for n in by_cluster.values())
    same_user = sum(_pairs(n) for n in by_user.values())
    agreeing = sum(_pairs(n) for n in by_both.values())
    collapsed = sum(1 for users in users_in_cluster.values() if len(users) >= 2)

    return {
        "pairwise_precision": agreeing / same_cluster if same_cluster else 1.0,
        "pairwise_recall": agreeing / same_user if same_user else 1.0,
        "cluster_collapse": collapsed,
        "pairs": {
            "same_cluster": same_cluster,
            "same_user": same_user,
            "agreeing": agreeing,
        },
        "scripts": len(truth),
    }
