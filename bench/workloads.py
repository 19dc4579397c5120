"""The benchmark's workloads: seeded lists of degenpoly CLI invocations.

Each workload is a fixed list of slots.  A slot holds a few variants that
cost about the same; the workload seed picks one variant and one output
format per slot and shuffles the slots, which gives one *pass*.  Because
every op comes from this finite catalogue, ``reference.json`` holds the
expected output of every op the generator can emit.
"""

from __future__ import annotations

import random

FORMATS = ("plain", "json", "csv", "latex")

# verify-registry: the whole registry at n = 6, in any output format.  At
# n = 10 an op takes 15-21 s, so a run held one or two ops and its median
# followed the host's speed; at n = 6 an op takes about 2.5 s, a run holds a
# dozen, and Poly products are still two thirds of the profile.
VERIFY_SLOTS = [
    [("verify", "--n", "6")],
]

# table-mix: all 8 families, n 6..12, symbolic and rational-pinned arguments.
TABLE_SLOTS = [
    [("table", "falling-lambda", "--n", "12", "--x", v) for v in ("x", "2/3", "5/2")],
    [("table", "deg-bernoulli", "--n", "12", "--x", "x")],
    [("table", "deg-bernoulli", "--n", "10", "--lambda", lam, "--x", x)
     for lam, x in (("1/3", "2/5"), ("1/2", "3/4"), ("2/7", "1/3"))],
    [("table", "deg-euler", "--n", "12", "--x", "x")],
    [("table", "deg-euler", "--n", "10", "--lambda", lam) for lam in ("2/5", "1/4", "3/2")],
    [("table", "higher-bernoulli", "--n", "10", "--x", "x")],
    [("table", "higher-bernoulli", "--n", "8", "--a", a, "--lambda", lam, "--x", "x")
     for a, lam in (("3/2", "1/2"), ("5/3", "1/3"), ("1/2", "2/5"))],
    [("table", "higher-euler", "--n", "10", "--x", "x")],
    [("table", "higher-euler", "--n", "12", "--b", b, "--lambda", lam)
     for b, lam in (("5/2", "1/3"), ("3/4", "1/2"), ("7/3", "2/3"))],
    [("table", "sheffer-t", "--n", "9", "--x", "x")],
    [("table", "sheffer-t", "--n", "8", "--a", a, "--b", b, "--lambda", lam, "--x", "x")
     for a, b, lam in (("1/2", "3/2", "1/3"), ("2/3", "1/4", "1/2"), ("3/2", "5/3", "2/5"))],
    [("table", "stirling1", "--n", n) for n in ("10", "11", "12")],
    [("table", "sheffer-y", "--n", "10", "--x", "x", "--provider", p)
     for p in ("uniform01", "ber:1/2", "zero")],
    [("table", "sheffer-y", "--n", "8", "--x", "x", "--provider", p)
     for p in ("ber:p", "iid:ber:1/2:2", "iid:uniform01:3")],
    [("table", "sheffer-y", "--n", "6", "--x", "x", "--provider", "ber:p", "--p", p, "--lambda", lam)
     for p, lam in (("1/3", "1/2"), ("3/4", "1/5"), ("2/5", "2/3"))],
]

MC_SAMPLES = "10000000"
MC_SLOTS_SPEC = [
    ("thm3.1", "--provider", "uniform01"),
    ("thm3.1", "--provider", "ber:1/2"),
    ("thm3.1", "--provider", "iid:uniform01:3"),
    ("thm3.7", "--m", "2", "--l", "1"),
    ("thm3.7", "--m", "3", "--l", "1"),
    ("thm3.7", "--m", "3", "--l", "2"),
]


def _mc_slots() -> list[list[tuple[str, ...]]]:
    """Three variants per Monte-Carlo slot, drawn once from a fixed generator.

    The sampler seed is part of the op, so an op's pass/fail outcome is
    fixed by its argv and recorded in the reference.
    """
    rng = random.Random("degenpoly-mc-catalogue")
    slots = []
    for spec in MC_SLOTS_SPEC:
        variants = []
        for _ in range(3):
            n = str(rng.randint(1, 4))
            lam = rng.choice(("1/8", "1/4", "1/3", "1/2"))
            x = rng.choice(("1/4", "1/2", "2/3", "3/2"))
            seed = str(rng.randrange(2**32))
            variants.append(("mc", *spec, "--n", n, "--lambda", lam, "--x", x,
                             "--samples", MC_SAMPLES, "--seed", seed))
        slots.append(variants)
    return slots


WORKLOADS = {
    "verify-registry": (VERIFY_SLOTS, FORMATS),
    "table-mix": (TABLE_SLOTS, FORMATS),
    # mc estimates are checked field by field, so one parseable format suffices
    "mc-sample": (_mc_slots(), ("json",)),
}


def with_format(variant: tuple[str, ...], fmt: str) -> tuple[str, ...]:
    return (*variant, "--format", fmt)


def catalogue(workload: str) -> list[tuple[str, ...]]:
    """Every argv the generator can emit for ``workload``."""
    slots, formats = WORKLOADS[workload]
    return [with_format(v, f) for slot in slots for v in slot for f in formats]


def generate(workload: str, seed: int) -> list[tuple[str, ...]]:
    """One pass of ``workload``: one op per slot, in a seeded order."""
    slots, formats = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = [with_format(rng.choice(slot), rng.choice(formats)) for slot in slots]
    rng.shuffle(ops)
    return ops
