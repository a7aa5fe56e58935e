"""Seeded input generators, kept apart from the system under test.

Nothing here imports megaloop: each generator turns a seed into the plain
inputs a workload feeds the engine, so the same seed always gives the same
inputs and the engine only ever sees the generated values.
"""

from __future__ import annotations

import random

COMPONENTS = tuple(f"c{i}" for i in range(1, 10))

# repair-storm: a ~500-kind failure vocabulary drawn Pareto-like, so a few
# kinds repeat often (known strategies) and a long tail stays novel (the
# 6-run escalation, the After[DeepCheck] interception and a strategy edit).
# With this exponent about 0.5% of a 10k-event episode ends in an interception.
KNOWN_KIND = "crash"
FAILURE_KINDS = (KNOWN_KIND,) + tuple(f"fault-{i:03d}" for i in range(1, 500))
KIND_WEIGHTS = tuple(1.0 / (rank + 1) ** 2.4 for rank in range(len(FAILURE_KINDS)))
INJECT_SHARE = 0.3
# a failure stays unhealed for at most six runs (runsSince(...) > 5 forces the
# deep check that synthesizes every missing strategy), so seven plain emits
# always drain the episode
DRAIN_EMITS = 7


def episode_rng(workload: str, seed: int, episode: int) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{episode}")


def interp_blocks(seed: int, episode: int, runs: int) -> list[tuple[str, int]]:
    """Alternating baseline/interpreter blocks covering `runs` runs of each mode.

    Block lengths are drawn at random so neither mode sits at a fixed phase
    of the garbage collector or the clock; the first mode alternates.
    """
    rng = episode_rng("interp-hot", seed, episode)
    modes = ("interpreter", "baseline") if rng.random() < 0.5 else ("baseline", "interpreter")
    blocks: list[tuple[str, int]] = []
    left = runs
    while left > 0:
        size = min(left, rng.randint(100, 400))
        blocks.extend((mode, size) for mode in modes)
        left -= size
    return blocks


def storm_events(seed: int, episode: int, events: int) -> list[tuple]:
    """`events` failure/emit events followed by the drain tail.

    Each entry is ("inject", component, kind) or ("emit",).  The number of
    injections and how often each kind occurs are fixed by the Pareto-like
    weights (largest remainder); the seed shuffles their order and picks the
    components, so every episode has the same mix of known and novel kinds.
    """
    rng = episode_rng("repair-storm", seed, episode)
    injections = round(events * INJECT_SHARE)
    kinds = _apportion(FAILURE_KINDS, KIND_WEIGHTS, injections)
    rng.shuffle(kinds)
    inject_at = set(rng.sample(range(events), injections))
    out: list[tuple] = []
    for i in range(events):
        if i in inject_at:
            out.append(("inject", rng.choice(COMPONENTS), kinds.pop()))
        else:
            out.append(("emit",))
    out.extend([("emit",)] * DRAIN_EMITS)
    return out


def _apportion(items: tuple, weights: tuple, total: int) -> list:
    """`total` items, each repeated in proportion to its weight."""
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return [item for item, n in zip(items, counts) for _ in range(n)]


ANALYSIS_VARIANTS = ("selfRepairA2", "selfRepairA")
SNAPSHOT_EVERY = 20


def churn_cycles(seed: int, episode: int, cycles: int) -> list[list[tuple[str, str]]]:
    """Per cycle, the control requests as (verb, argument text) pairs.

    `{patch}` and `{snapshot}` stand for paths the workload fills in.
    """
    rng = episode_rng("evolve-churn", seed, episode)
    out = []
    for i in range(cycles):
        cycle = [
            ("step", "0.1"),
            ("patch", "{patch}"),
            ("step", "0.01"),
            ("rebind", f"selfRepair.Analyze {ANALYSIS_VARIANTS[i % 2]}"),
            ("inject", f"{rng.choice(COMPONENTS)} crash"),
            ("list", ""),
        ]
        if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
            cycle.append(("snapshot", "{snapshot}"))
        out.append(cycle)
    return out
