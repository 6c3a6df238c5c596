"""Job lists of the benchmark's workloads, generated from a seed.

A job is one ``defbranch run`` invocation: a config the CLI reads from
disk, plus the ``--workers`` flag for the simulate jobs that compare
worker counts.  Everything random here (the seeded laws of
``many-small``, every ``master_seed`` and the job order) comes from the
workload seed, so the same seed gives byte-identical configs.
"""
from __future__ import annotations

import random

LAW_A = {"kind": "finite", "weights": [0.45, 0.0, 0.45]}
LAW_B = {"kind": "lf", "q": 0.1, "r": 0.4, "p": 0.5}
# smallest fixed point of LAW_B's pgf
THETA_B = 0.7298437881283575

EXAMPLE_2A = {"kind": "named", "id": "example-2a"}
EXAMPLE_2B = {"kind": "named", "id": "example-2b"}
POWER_DEFECT = {
    "kind": "named",
    "id": "power-defect",
    "params": {"a": 0.5, "b": 1.5, "arity": 2},
}

PGF_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def constant(law: dict) -> dict:
    return {"kind": "constant", "law": law}


def job(job_id: str, command: str, environment: dict, params: dict,
        seed: int = 0, workers: int | None = None) -> dict:
    return {
        "id": job_id,
        "config": {
            "command": command,
            "environment": environment,
            "params": params,
            "master_seed": seed,
        },
        "workers": workers,
    }


def deep_exact(rng: random.Random) -> list[dict]:
    """Long horizons and high degree: per-generation law evaluation and
    the convolution kernel are nearly all of the time."""
    jobs = [
        job("check-2a", "check", EXAMPLE_2A, {}),
        job("check-power", "check", POWER_DEFECT, {}),
        job("absorption-a", "absorption", constant(LAW_A), {"n": 10_000}),
        job("moments-a", "moments", constant(LAW_A), {"n": 100_000}),
        job("moments-2b", "moments", EXAMPLE_2B, {"n": 10_000}),
        job("bounds-b", "bounds", constant(LAW_B), {"n": 10_000}),
        job("rates-b", "rates", constant(LAW_B),
            {"n": 10_000, "rho": THETA_B, "sigma": THETA_B, "eps": 0.05}),
        job("dist-b", "dist", constant(LAW_B), {"n": 50, "degree": 1536}),
    ]
    for j in jobs:
        j["config"]["master_seed"] = rng.randrange(2**31)
    rng.shuffle(jobs)
    return jobs


def seeded_law(rng: random.Random) -> dict:
    """A finite law with 1 to 4 children; about half are defective."""
    k = rng.randint(1, 4)
    w = [rng.random() + 1e-3 for _ in range(k + 1)]
    mass = 1.0 if rng.random() < 0.5 else rng.uniform(0.8, 0.99)
    total = sum(w)
    return {"kind": "finite", "weights": [x * mass / total for x in w]}


def seeded_prefix(rng: random.Random) -> dict:
    return {
        "kind": "prefix",
        "laws": [seeded_law(rng) for _ in range(10)],
        "tail": LAW_B,
    }


def many_small(rng: random.Random) -> list[dict]:
    """The sweep and coefficient layers at sizes where fixed per-call
    costs dominate: config validation, building the environment, and
    any per-call set-up."""
    envs = [seeded_prefix(rng) for _ in range(3)]
    jobs = []
    for e, env in enumerate(envs):
        for n in range(1, 101):
            jobs.append(job(f"moments-e{e}-n{n}", "moments", env, {"n": n}))
            jobs.append(job(f"bounds-e{e}-n{n}", "bounds", env, {"n": n}))
            jobs.append(job(f"pgf-e{e}-n{n}", "pgf", env, {"n": n, "s": PGF_GRID}))
        for n in (10, 20, 30):
            for degree in (32, 64, 128, 256):
                jobs.append(job(f"dist-e{e}-n{n}-d{degree}", "dist", env,
                                {"n": n, "degree": degree}))
    for name, law in (("a", LAW_A), ("b", LAW_B)):
        for n in range(1, 61):
            jobs.append(job(f"cond-mean-{name}-n{n}", "cond-mean", constant(law), {"n": n}))
    jobs.append(job("tree-sample-a", "tree-sample", constant(LAW_A),
                    {"n": 4, "count": 20, "sampler": "construction"}))
    for j in jobs:
        j["config"]["master_seed"] = rng.randrange(2**31)
    rng.shuffle(jobs)
    return jobs


def sampling(rng: random.Random) -> list[dict]:
    """The simulation block loop, law sampling, and the rejection and
    spine tree samplers; exact sweeps only at n <= 20."""
    sim_a = {"horizon": 20, "reps": 1_000_000, "mode": "direct"}
    seed_a = rng.randrange(2**31)
    jobs = [
        job("simulate-a-w1", "simulate", constant(LAW_A), sim_a, seed_a, workers=1),
        job("simulate-a-w2", "simulate", constant(LAW_A), sim_a, seed_a, workers=2),
        job("simulate-b", "simulate", constant(LAW_B),
            {"horizon": 20, "reps": 100_000, "mode": "coupled", "snapshots": [5, 10]},
            rng.randrange(2**31)),
        job("agree-b", "agree", constant(LAW_B), {"horizon": 4, "reps": 200_000},
            rng.randrange(2**31)),
        job("tree-validate-a", "tree-validate", constant(LAW_A),
            {"n": 2, "samples": 20_000}, rng.randrange(2**31)),
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "deep-exact": deep_exact,
    "many-small": many_small,
    "sampling": sampling,
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# One small job per command: the set-up of a workload runs the ones for
# the commands it uses, and the traced run runs all of them (the layer
# probe) so every layer has spans on every workload.
_SMALL = {
    "pgf": (constant(LAW_A), {"n": 5, "s": [0.5]}),
    "dist": (constant(LAW_B), {"n": 5, "degree": 16}),
    "moments": (constant(LAW_A), {"n": 10}),
    "absorption": (constant(LAW_A), {"n": 10}),
    "bounds": (constant(LAW_B), {"n": 10}),
    "check": ({"kind": "named", "id": "example-1b"}, {"horizons": [10, 100]}),
    "rates": (constant(LAW_B), {"n": 10, "rho": THETA_B, "sigma": THETA_B, "eps": 0.05}),
    "simulate": (constant(LAW_A), {"horizon": 5, "reps": 4096}),
    "agree": (constant(LAW_B), {"horizon": 2, "reps": 4096}),
    "tree-sample": (constant(LAW_A), {"n": 2, "count": 2}),
    "tree-validate": (constant(LAW_A), {"n": 1, "samples": 200}),
    "cond-mean": (constant(LAW_A), {"n": 5}),
}


def small_jobs(commands) -> list[dict]:
    return [
        job(f"small-{c}", c, *_SMALL[c], seed=1)
        for c in sorted(set(commands))
    ]


def all_commands() -> list[str]:
    return sorted(_SMALL)
