"""Seeded inputs of every workload.

Every workload is a fixed list of :class:`Problem` s drawn from the
workload seed; the same seed gives the same problems, and
:func:`inputs_digest` fingerprints them so two runs can show they were
fed the same inputs.  Only the generated problems reach the program:
PTG objects in process, PTG files for the CLI, request documents for
the service.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np

from repro.graph import PTG, ptg_to_dict
from repro.platform import by_name
from repro.timemodels import AmdahlModel, SyntheticModel
from repro.workloads import DaggenParams, generate_daggen, generate_fft, generate_strassen
from repro.workloads.corpus import DENSITIES, IRREGULAR_JUMPS, REGULARITIES, WIDTHS

MODELS = {"model1": AmdahlModel, "model2": SyntheticModel}

# the paper's corpus classes (Section IV-C): FFT with 2-16 levels,
# Strassen, layered (jump 0) and irregular DAGGEN with 20/50/100 tasks
PAPER_KINDS = (
    ("fft", 2), ("fft", 4), ("fft", 8), ("fft", 16), ("strassen", 0),
    ("layered", 20), ("layered", 50), ("layered", 100),
    ("irregular", 20), ("irregular", 50), ("irregular", 100),
)
PLATFORMS = ("chti", "grelon")
ALGORITHMS = ("emts5", "emts10")
LARGE_SIZES = tuple(range(300, 601, 30))
SERVICE_KINDS = (
    ("fft", 4), ("fft", 8), ("strassen", 0), ("layered", 20),
    ("layered", 50), ("irregular", 20), ("irregular", 50),
)
# DAGGEN shapes, assigned to problems by position rather than drawn: the
# seed changes each graph's edges and task costs, not the mix of shapes,
# so two seeds give workloads of the same weight
SHAPES = tuple(itertools.product(WIDTHS, REGULARITIES, DENSITIES))
# generator seeds of the fixed graphs of the CLI rotation and large-ptg
CLI_GRAPH_SEED = 0
LARGE_GRAPH_SEED = 0


@dataclass(frozen=True)
class Problem:
    """One scheduling request: graph, platform, model, algorithm, seed."""

    ptg: PTG
    platform: str
    model: str
    algorithm: str
    seed: int

    @property
    def label(self) -> str:
        return f"{self.ptg.name}/{self.platform}/{self.model}/{self.algorithm}/s{self.seed}"

    def cluster(self):
        return by_name(self.platform)

    def time_model(self):
        return MODELS[self.model]()

    def request_doc(self) -> dict:
        """The service request document of this problem."""
        return {
            "ptg": ptg_to_dict(self.ptg),
            "platform": self.platform,
            "model": self.model,
            "algorithm": self.algorithm,
            "seed": self.seed,
        }

    def cli_args(self, ptg_path: str) -> list[str]:
        """Arguments of ``repro schedule`` for this problem."""
        return [
            "schedule", "--ptg", ptg_path, "--platform", self.platform,
            "--model", self.model, "--algorithm", self.algorithm,
            "--seed", str(self.seed),
        ]


def make_ptg(kind: str, size: int, rng: np.random.Generator, name: str, shape: int) -> PTG:
    """One graph of a corpus class; ``shape`` picks the DAGGEN shape."""
    if kind == "fft":
        return generate_fft(size, rng=rng, name=name)
    if kind == "strassen":
        return generate_strassen(rng=rng, name=name)
    width, regularity, density = SHAPES[(shape * 5) % len(SHAPES)]
    jumps = (0,) if kind == "layered" else IRREGULAR_JUMPS
    params = DaggenParams(num_tasks=size, width=width, regularity=regularity,
                          density=density, jump=jumps[shape % len(jumps)])
    return generate_daggen(params, rng=rng, name=name)


def _emts_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def paper_mix(seed: int) -> list[Problem]:
    """One problem per (corpus class, platform, model, algorithm) cell,
    in a seeded order: a stratified figure-4/5 campaign."""
    rng = np.random.default_rng([seed, 1])
    problems = []
    for kind, size in PAPER_KINDS:
        cells = itertools.product(PLATFORMS, MODELS, ALGORITHMS)
        for shape, (platform, model, algorithm) in enumerate(cells):
            name = f"{kind}{size or ''}-{len(problems)}"
            problems.append(
                Problem(make_ptg(kind, size, rng, name, shape), platform,
                        model, algorithm, _emts_seed(rng))
            )
    order = rng.permutation(len(problems))
    return [problems[i] for i in order]


def large_ptg(seed: int) -> list[Problem]:
    """Irregular DAGGEN graphs of 300-600 tasks on Grelon, EMTS10, Model 2.

    The graphs are fixed instances and the seed draws the EMTS seeds and
    the order.  The process's peak memory follows the edges of the
    largest graphs: seeded graphs made it spread 0.10 across seeds.
    """
    graphs = np.random.default_rng([LARGE_GRAPH_SEED, 2])
    rng = np.random.default_rng([seed, 2])
    problems = [
        Problem(make_ptg("irregular", size, graphs, f"irregular{size}", shape),
                "grelon", "model2", "emts10", _emts_seed(rng))
        for shape, size in enumerate(LARGE_SIZES)
    ]
    order = rng.permutation(len(problems))
    return [problems[i] for i in order]


def cli_rotation(seed: int, count: int) -> list[Problem]:
    """Paper-scale problems (at most 100 tasks) for the CLI rotation,
    spread over the corpus classes and both platforms, all EMTS10.

    The graphs are fixed corpus instances and the seed draws the EMTS
    seeds.  Over so few problems, seeded graphs made the quality figure
    spread 0.09 across seeds, against 0.014 with fixed graphs; the
    workload exists for start-up cost, not for the graphs.
    """
    graphs = np.random.default_rng([CLI_GRAPH_SEED, 3])
    rng = np.random.default_rng([seed, 3])
    problems = []
    for i in range(count):
        kind, size = PAPER_KINDS[(3 + 4 * i) % len(PAPER_KINDS)]
        problems.append(
            Problem(make_ptg(kind, size, graphs, f"{kind}{size or ''}-{i}", i),
                    PLATFORMS[i % 2], "model2", "emts10", _emts_seed(rng))
        )
    return problems


def service_pool(seed: int, unseen: int) -> tuple[list[Problem], list[Problem]]:
    """Known problems (warmed before timing) and a pool of unseen ones.

    Service requests are EMTS5 on paper-scale graphs of at most 50
    tasks, so a cold request stays under about a tenth of a second.
    Both lists cycle through every (class, platform) cell.
    """
    rng = np.random.default_rng([seed, 4])
    cells = list(itertools.product(SERVICE_KINDS, PLATFORMS))

    def draw(prefix: str, i: int) -> Problem:
        (kind, size), platform = cells[i % len(cells)]
        return Problem(make_ptg(kind, size, rng, f"{prefix}{kind}{size or ''}-{i}", i),
                       platform, "model2", "emts5", _emts_seed(rng))

    return ([draw("k", i) for i in range(len(cells))],
            [draw("u", i) for i in range(unseen)])


def shared_problem() -> Problem:
    """The fixed request every surface must answer bit-identically."""
    return Problem(generate_fft(8, rng=7, name="shared-fft8"), "chti",
                   "model2", "emts5", 7)


def inputs_digest(problems: list[Problem]) -> str:
    h = hashlib.sha256()
    for p in problems:
        h.update(json.dumps(p.request_doc(), sort_keys=True).encode())
    return h.hexdigest()[:16]
