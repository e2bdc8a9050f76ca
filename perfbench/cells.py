"""The benchmark's workloads: fixed lists of (workload, variant, geometry) cells.

Each cell is one ``run_workload`` call.  The lists are spelled out here
rather than borrowed from the figure drivers so that the benchmark keeps
measuring the same work when a driver changes its sweep.

``geometry="bench"`` is the paper-shaped geometry (``bench_workload_params``
on ``bench_gpu()``, with the overrides below); ``geometry="test"`` swaps in
``test_workload_params`` so the self-test finishes in seconds.

Seeds: with no run seed every cell keeps its workload's built-in seed, so
the numbers match the paper figures.  A run seed ``n`` gives cell ``i``
the seed ``n * 64 + i``: each cell draws its own inputs, so a run's totals
average independent inputs instead of repeating one input's hot spots
across every variant, which keeps contended totals steady across seeds.
"""

from repro.harness import configs

SPIN = [(w, v) for w in ("ra", "ht") for v in ("vbv", "cgl")]
COMMIT = [
    (w, v)
    for w in ("ra", "ht", "gn", "eb")
    for v in ("hv-sorting", "optimized", "tbv-sorting", "hv-backoff")
]
CONTENDED_VARIANTS = ("hv-sorting", "hv-backoff", "tbv-sorting")
#: the two-device sharded ledger of the ``contended`` workload
MG_DEVICES = 2
MG_LINK = "uniform:60"

#: Bench-geometry overrides.  A run must fit several passes of every
#: workload into its time budget: spin cells run one transaction per
#: thread instead of two (same concurrency, so the same polling; half the
#: host time).  Contended cells run more transactions per thread than the
#: default, since a skewed ledger's step count swings with its inputs and
#: more transactions average that out; mg runs 8 so the multigpu ctx
#: carries a visible share of the workload's host time.
BENCH_OVERRIDES = {
    "spin": {"ra": {"txs_per_thread": 1}, "ht": {"txs_per_thread": 1}},
    "contended": {"lg": {"txs_per_thread": 4}, "mg": {"txs_per_thread": 8}},
}
#: cell seeds of one run are ``seed * SEED_STRIDE + cell index``
SEED_STRIDE = 64

#: fig2's workloads and variants, as ``fig2 --quick`` sweeps them
SWEEP_WORKLOADS = ("ra", "ht", "gn", "lb", "km")
SWEEP_VARIANTS = ("egpgv", "vbv", "tbv-sorting", "hv-backoff", "hv-sorting", "optimized")
SWEEP_JOBS = 2


class Cell:
    """One simulation run: workload constructor params, STM variant and
    device overrides on top of ``bench_gpu()``."""

    __slots__ = ("workload", "variant", "params", "gpu_overrides")

    def __init__(self, workload, variant, params, gpu_overrides=None):
        self.workload = workload
        self.variant = variant
        self.params = params
        self.gpu_overrides = gpu_overrides or {}

    @property
    def name(self):
        if self.gpu_overrides.get("devices", 1) > 1:
            return "%s/%s@%ddev" % (self.workload, self.variant,
                                    self.gpu_overrides["devices"])
        return "%s/%s" % (self.workload, self.variant)

    def gpu(self):
        gpu = configs.bench_gpu()
        for attr, value in self.gpu_overrides.items():
            setattr(gpu, attr, value)
        return gpu


def _params(workload, geometry, group=None):
    if geometry == "bench":
        params = configs.bench_workload_params(workload)
        params.update(BENCH_OVERRIDES.get(group, {}).get(workload, {}))
    elif geometry == "test":
        params = configs.test_workload_params(workload)
    else:
        raise ValueError("unknown geometry %r" % geometry)
    return params


def _seeded(params_list, seed):
    """Give each cell's params its own seed derived from the run seed."""
    if seed is not None:
        for index, params in enumerate(params_list):
            params["seed"] = seed * SEED_STRIDE + index
    return params_list


def sim_cells(workload, geometry="bench", seed=None):
    """The cell list of a simulation workload (``spin``/``commit``/
    ``contended``); ``seed=None`` keeps every workload's built-in seed."""
    if workload == "spin":
        pairs = SPIN
    elif workload == "commit":
        pairs = COMMIT
    elif workload == "contended":
        pairs = [(w, v) for w in ("lg", "mg") for v in CONTENDED_VARIANTS]
    else:
        raise ValueError("%r is not a simulation workload" % workload)
    mg_gpu = {"devices": MG_DEVICES, "link_model": MG_LINK}
    params = _seeded([_params(w, geometry, workload) for w, _v in pairs], seed)
    return [Cell(w, v, p, mg_gpu if w == "mg" else None)
            for (w, v), p in zip(pairs, params)]


def _quick(params):
    """``fig2 --quick``'s 4x geometry shrink."""
    params = dict(params)
    for key in ("grid", "grid_blocks", "match_grid"):
        if key in params:
            params[key] = max(1, params[key] // 4)
    if "num_points" in params:
        params["num_points"] = max(32, params["num_points"] // 4)
    return params


def sweep_specs(geometry="bench", seed=None):
    """The ``fig2 --quick`` cell list (35 cells) as ``JobSpec`` objects."""
    from repro.harness.parallel import JobSpec

    def params(name, variant):
        if variant == "egpgv" and geometry == "bench":
            # EGPGV runs fig2's total work at its 4-block capacity
            return _quick(configs.egpgv_workload_params(name))
        return _quick(_params(name, geometry))

    cells = [(name, variant) for name in SWEEP_WORKLOADS
             for variant in ("cgl",) + SWEEP_VARIANTS]
    params = _seeded([params(n, v) for n, v in cells], seed)
    return [
        JobSpec((name, variant), name, p, variant,
                stm_overrides=None if variant == "cgl" else configs.egpgv_capacity(),
                allow_crash=variant != "cgl")
        for (name, variant), p in zip(cells, params)
    ]
