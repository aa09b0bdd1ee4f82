"""Synthetic block streams with known script ownership, plus scoring.

The generator simulates users with wallet behaviors (fresh change scripts,
occasional address reuse, forced input consolidations, equal-output mixes,
and a deposit service sweeping customer deposit addresses) and writes the
same JSONL wire format the engine ingests, so everything downstream is
exercised end to end. Ownership ground truth is emitted per script id, the
ids matching first-observation order in the written stream.

Scoring compares a partition, as its column of canonical labels, against the
truth with pairwise precision/recall and counts clusters that collapse multiple
users together.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain, compress, count
from operator import itemgetter, mul
from random import Random
from typing import IO

from .errors import DataError, GenerationError, int_pairs, output_files

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
        for name, spec in self.__dataclass_fields__.items():
            p = getattr(self, name)
            if spec.type == "float" and not 0.0 <= p <= 1.0:  # every float is a rate
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


_TRUTH_HEADER = ["script_id", "user_id"]
_value = itemgetter(1)
# One input or output of a wire line. Synth makes every text on the line itself,
# as `a<n>` or `t<n>`, so none needs JSON escaping.
_entry = '{"script":"%s","value":%d}'.__mod__


class _Wallet:
    """A user's addresses and UTXOs; `total` is the sum of the UTXO values."""

    __slots__ = ("uid", "utxos", "total", "addresses", "pending_deposits")

    def __init__(self, uid: int):
        self.uid = uid
        self.utxos: list[tuple[str, int]] = []
        self.total = 0
        self.addresses: list[str] = []
        self.pending_deposits: list[tuple[str, int]] = []

    def add(self, script: str, value: int) -> tuple[str, int]:
        utxo = (script, value)
        self.utxos.append(utxo)
        self.total += value
        return utxo

    def take(self, idx: int) -> tuple[str, int]:
        utxo = self.utxos.pop(idx)
        self.total -= utxo[1]
        return utxo

    def put_back(self, utxos: list[tuple[str, int]]) -> None:
        self.utxos.extend(utxos)
        self.total += sum(map(_value, utxos))

    def first_fit(self, floor: int) -> int | None:
        """Index of the first UTXO worth at least `floor`; the scan runs in C."""
        return next(compress(count(), map(floor.__le__, map(_value, self.utxos))), None)


class StreamGenerator:
    """Deterministic generator: one seed fully determines the stream."""

    def __init__(self, seed: int, params: GenParams):
        self.rng = Random(seed)
        self.params = params
        self.seed = seed
        self.truth: dict[int, int] = {}
        # The owner of each script the written stream has not shown yet.
        self._owners: dict[str, int] = {}
        self._script_n = 0
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
                wallet.add(script, share + self._non_round(101, 997))

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

    def _emit(self, kind: str, inputs, outputs) -> tuple:
        """Shuffle the outputs, count the transaction as `kind`, and name it."""
        self.rng.shuffle(outputs)  # draws nothing for one output
        self.counts[kind] += 1
        self.counts["transactions"] += 1
        return f"t{self.counts['transactions']}", inputs, outputs

    def _pick_payer(self, floor: int) -> _Wallet | None:
        wallets = self.wallets
        for _ in range(20):  # random probing keeps this O(1) per tx
            wallet = wallets[self.rng.randrange(len(wallets))]
            if wallet.total >= floor:
                return wallet
        for wallet in wallets:
            if wallet.total >= floor:
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
        return payee.add(self._receive_address(payee), value)

    def _change_out(self, payer: _Wallet, value: int) -> tuple[str, int]:
        if payer.addresses and self.rng.random() >= self.params.fresh_change_prob:
            script = self.rng.choice(payer.addresses)
        else:
            script = self._fresh_address(payer)
        return payer.add(script, value)

    def _payment_tx(self) -> tuple | None:
        p = self._payment_value()
        fee = self._fee()
        payer = self._pick_payer(floor=1000)
        if payer is None:
            raise GenerationError("no user has funds left to make a payment")
        payee = self._pick_payee(payer)
        second_payee = None
        if self.rng.random() < self.params.multi_pay_rate and len(self.wallets) > 2:
            # One draw, as `rng.choice` over the wallets other than payer and payee
            # (never the same wallet) in uid order, stepping over their two uids.
            uid = self.rng.randrange(len(self.wallets) - 2)
            for skipped in sorted((payer.uid, payee.uid)):
                if uid >= skipped:
                    uid += 1
            second_payee = self.wallets[uid]

        single = payer.first_fit(p + fee + 1)
        if single is not None:
            inputs = [payer.take(single)]
            v_in = inputs[0][1]
        else:
            # Wasteful selection: target change > payment so that, with every
            # input below p + fee, the minimal-input condition can never hold.
            inputs = []
            v_in = 0
            while payer.utxos and v_in < 2 * p + fee + 1:
                inputs.append(payer.take(self.rng.randrange(len(payer.utxos))))
                v_in += inputs[-1][1]
            if v_in < 2 * p + fee + 1:
                p = (v_in - fee - 1) // 2
                if p < 10:
                    payer.put_back(inputs)  # tx infeasible
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
        return self._emit("payments", inputs, outputs)

    def _consolidation_tx(self) -> tuple | None:
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
        inputs = [payer.take(i) for i in picked]
        total = sum(v for _, v in inputs)
        least = min(v for _, v in inputs)
        fee = self._non_round(51, max(53, min(999, least // 4)))
        p = self.rng.randrange(total - least + 1, total - fee)
        change = total - p - fee
        payee = self._pick_payee(payer)
        outputs = [self._pay_out(payee, p), payer.add(self._fresh_address(payer), change)]
        return self._emit("consolidations", inputs, outputs)

    def _coinjoin_tx(self) -> tuple | None:
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
            idx = wallet.first_fit(denom + 1000)
            if idx is not None:
                participants.append((wallet, idx))
            if len(participants) == 3:
                break
        if len(participants) < 2:
            return None
        inputs = []
        outputs = []
        for wallet, idx in participants:
            script, value = wallet.take(idx)
            inputs.append((script, value))
            outputs.append(wallet.add(self._fresh_address(wallet), denom))
            change = value - denom - self._fee()
            if change > 0:
                outputs.append(self._change_out(wallet, change))
        return self._emit("coinjoins", inputs, outputs)

    def _sweep_tx(self) -> tuple | None:
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
        return self._emit("sweeps", inputs, [service.add(self._fresh_address(service), value)])

    def _next_tx(self) -> tuple | None:
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
        owners, truth = self._owners, self.truth
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
            for txid, inputs, outputs in txs:
                # Script ids follow ingestion's first-observation order: inputs, then outputs.
                for script, _ in chain(inputs, outputs):
                    uid = owners.pop(script, None)
                    if uid is not None:
                        truth[len(truth)] = uid
                sink.write(
                    f'{{"txid":"{txid}","block":{block},"inputs":[{",".join(map(_entry, inputs))}],'
                    f'"outputs":[{",".join(map(_entry, outputs))}]}}\n'
                )
        return {
            "seed": self.seed,
            "params": asdict(self.params),
            "counts": dict(self.counts, scripts=len(truth)),
        }


def generate(seed: int, params: GenParams, sink: IO) -> tuple[dict[int, int], dict]:
    """Write a synthetic stream to `sink`; returns (truth, metadata)."""
    gen = StreamGenerator(seed, params)
    meta = gen.write(sink)
    return gen.truth, meta


def generate_files(prefix: str, seed: int, params: GenParams) -> dict:
    """Write `<prefix>.jsonl`, `<prefix>.truth.csv`, `<prefix>.meta.json`; all or none."""
    paths = {"jsonl": f"{prefix}.jsonl", "truth": f"{prefix}.truth.csv", "meta": f"{prefix}.meta.json"}
    with output_files() as open_output:
        jsonl, truth_sink, meta_sink = (open_output(path) for path in paths.values())
        truth, meta = generate(seed, params, jsonl)
        write_truth(truth_sink, truth)
        json.dump(meta, meta_sink, indent=2, sort_keys=True)
        meta_sink.write("\n")
    return paths


def write_truth(sink: IO, truth: dict[int, int]) -> None:
    sink.write(",".join(_TRUTH_HEADER) + "\r\n")
    sink.writelines(map("%d,%d\r\n".__mod__, sorted(truth.items())))


def read_truth(path: str) -> dict[int, int]:
    """Script id -> user id from a `script_id,user_id` CSV; an id may appear once."""
    return int_pairs(path, _TRUTH_HEADER, f"ground truth {path}", dense=False)


def _pairs(counts: Counter, total: int) -> int:
    """Unordered pairs within each group of `counts`, whose sizes sum to `total`."""
    sizes = counts.values()
    return (sum(map(mul, sizes, sizes)) - total) // 2


def score(labels: list[int], truth: dict[int, int]) -> dict:
    """Pairwise precision/recall of a partition's canonical labels against ownership truth.

    Precision over zero same-cluster pairs is 1.0 by convention (the atomic
    baseline makes no claims); likewise recall when no user owns two scripts.
    Scripts present in the partition but absent from the truth are ignored;
    truth scripts missing from the partition are an error. Each truth script
    is mapped to its cluster's label, and the pairs are counted per cluster,
    per user and per (cluster, user).
    """
    if truth and not 0 <= min(truth) <= max(truth) < len(labels):
        sid = next(sid for sid in truth if not 0 <= sid < len(labels))
        raise DataError(f"truth script {sid} is not in the partition")
    clusters = list(map(labels.__getitem__, truth))
    by_both = Counter(zip(clusters, truth.values()))
    total = len(truth)
    same_cluster = _pairs(Counter(clusters), total)
    same_user = _pairs(Counter(truth.values()), total)
    agreeing = _pairs(by_both, total)
    users_per_cluster = Counter(map(itemgetter(0), by_both))
    collapsed = sum(map((1).__lt__, users_per_cluster.values()))

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
