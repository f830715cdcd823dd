"""The benchmark's four workloads, driven through repro's public API.

Each workload makes its inputs from the seed (excluded from set-up
time), sets up cold (timed by the harness, repeated), measures a window
of operations, and checks its own outputs.  An operation is:

* ``tom_day``    — one simulated hour of a fault-free diurnal day
                   (k=16, l=1024, n=5, mPareto μ=1e4, warm session);
* ``fault_day``  — one simulated hour of a faulty day under TOM with
                   replication (k=8, l=64, n=5, ρ=0.5, μ=1e2);
* ``cold_top``   — one cold Algorithm 3 build (k=8, l=64, n=7);
* ``serve_open`` — one request of an open Poisson loop into the
                   placement service (k=16, mixed l=32/256, n=3/5).

See ``METRICS.md`` beside this file for why each shape was chosen and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import (
    DiurnalModel,
    FacebookTrafficModel,
    FaultConfig,
    FaultProcess,
    SolverSession,
    degrade,
    dp_placement,
    fat_tree,
    place_vm_pairs,
)
from repro.core.costs import CostContext
from repro.errors import ReproError
from repro.runtime.cache import ComputeCache, set_compute_cache
from repro.serve import Overloaded, PlacementService, ServeConfig
from repro.sim.engine import initial_placement, simulate_day
from repro.sim.policies import MParetoPolicy, TomReplicationPolicy
from repro.workload.dynamics import RateProcess, RedrawnRates

CPU = time.process_time

#: Eq. 1 recomputation tolerance (the repo-wide contract)
RTOL = 1e-9


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def child_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def add_cache_stats(totals: dict, cache: ComputeCache) -> None:
    for name in totals:
        totals[name] += getattr(cache, name)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


@dataclass
class Window:
    """What one measured window produced."""

    samples_ms: list[float]
    ops: int
    cpu_s: float
    wall_s: float
    failed_ops: int = 0
    #: day workloads: each (input, hour) slot's fastest repeat, in ms
    best_ms: list[float] | None = None
    #: serve only: highest ladder rate meeting the latency limit
    capacity: float | None = None
    #: hits/misses/evictions of the ComputeCaches created inside the window
    cache_stats: dict = field(default_factory=dict)
    #: workload-specific per-layer numbers
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: the bounded tail percentile, fixed per workload (see METRICS.md)
    tail_pct = 99.0
    SHAPE: dict = {}
    TOY: dict = {}

    def __init__(self, seed: int, toy: bool) -> None:
        self.seed = seed
        self.toy = toy
        self.shape = dict(self.TOY if toy else self.SHAPE)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None, ladder: bool = True) -> Window:
        raise NotImplementedError

    def checks(self, pins: dict) -> list[tuple[str, int, str]]:
        """``(name, failures, detail)`` per check; 0 failures passes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started (the serve loop and its threads)."""

    def _pin_check(self, pins: dict, value: str):
        """The output digest at a pinned seed (the default shapes only)."""
        key = f"{self.name}/seed{self.seed}"
        if self.toy or key not in pins:
            return None
        return ("pinned_digest", int(pins[key] != value), f"{key}: {value}")


# -- simulated days -------------------------------------------------------------


class HourClock:
    """CPU-time stamps at the first call each simulated hour makes.

    Each finished day is kept as ``(input, hours_ms)``: the CPU time of
    each simulated hour, keyed by which input the day ran.
    """

    def __init__(self) -> None:
        self.days: list[tuple[int, list[float]]] = []
        self._stamps: list[float] = []
        self._hour = None

    def stamp(self, hour: int) -> None:
        if hour != self._hour:
            self._hour = hour
            self._stamps.append(CPU())

    def start_day(self) -> None:
        self._stamps = []
        self._hour = None

    def end_day(self, input_index: int) -> None:
        stamps = self._stamps + [CPU()]
        hours = [1000.0 * (b - a) for a, b in zip(stamps[:-1], stamps[1:])]
        self.days.append((input_index, hours))

    def best_hours(self) -> list[float]:
        """The fastest repeat of every (input, hour) slot, in slot order.

        Repeats of one input run at different moments of the window, so a
        slot's fastest repeat is the one least slowed by a shared host,
        whose speed changes for seconds to minutes at a time.
        """
        slots: dict[tuple[int, int], list[float]] = {}
        for index, hours in self.days:
            for hour, ms in enumerate(hours):
                slots.setdefault((index, hour), []).append(ms)
        return [min(slots[key]) for key in sorted(slots)]


class ClockedRates(RateProcess):
    """Rate process proxy: stamps the hour clock (fault-free loop)."""

    def __init__(self, inner: RateProcess, clock: HourClock) -> None:
        self.inner = inner
        self.diurnal = inner.diurnal
        self.clock = clock

    def rates_at(self, hour: int) -> np.ndarray:
        self.clock.stamp(hour)
        return self.inner.rates_at(hour)


class ClockedFaults:
    """Fault process proxy: ``state_at`` is the faulty loop's first call."""

    def __init__(self, inner: FaultProcess, clock: HourClock) -> None:
        self.inner = inner
        self.clock = clock

    def state_at(self, hour: int):
        self.clock.stamp(hour)
        return self.inner.state_at(hour)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def recording(policy_cls):
    """``policy_cls`` that also keeps the placement after every step."""

    class Recording(policy_cls):
        def initialize(self, flows, placement):
            super().initialize(flows, placement)
            self.trail = []

        def step(self, rates):
            out = super().step(rates)
            self.trail.append(np.asarray(self.placement).copy())
            return out

    return Recording


class _DayWorkload(Workload):
    def _make_flows(self, topology, seed):
        model = FacebookTrafficModel()
        pairs = self.shape["pairs"]
        flows = place_vm_pairs(topology, pairs, seed=seed)
        return flows.with_rates(model.sample(pairs, rng=seed)), model

    def _rates(self, flows, model, seed):
        return RedrawnRates(
            flows, DiurnalModel(num_hours=self.shape["hours"]),
            np.zeros(flows.num_flows), model, seed=seed,
        )

    def _run_day(self, index: int, clock: HourClock | None):
        raise NotImplementedError

    def measure(self, seconds, tracer=None, ladder=True) -> Window:
        clock = HourClock()
        self.window_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
        first_day = len(self.days)
        failed = 0
        days = 0
        wall0, cpu0 = time.perf_counter(), CPU()
        deadline = wall0 + seconds
        while True:
            if tracer is not None:
                tracer.context = f"day{days}"
            try:
                self.days.append((days, self._run_day(days, clock)))
            except ReproError as exc:
                failed += self.shape["hours"]
                self.errors.append(f"day {days}: {exc!r}")
            days += 1
            # free the day's session and caches now: left to the cyclic
            # collector, peak RSS varied by ~35 MB with when it last ran
            gc.collect()
            if time.perf_counter() >= deadline:
                break
        wall, cpu = time.perf_counter() - wall0, CPU() - cpu0
        hours = days * self.shape["hours"]
        return Window(
            samples_ms=[h for _, hours in clock.days for h in hours],
            ops=hours,
            cpu_s=cpu,
            wall_s=wall,
            failed_ops=failed,
            best_ms=clock.best_hours(),
            cache_stats=self.window_cache_stats,
            layers=self._day_layers([day for _, day in self.days[first_day:]]),
            notes={"days": days, "errors": self.errors[-5:]},
        )

    def _day_layers(self, days) -> dict:
        return {}

    def _repeat_checks(self, replay) -> list[tuple[str, int, str]]:
        """Same-input days within the window, and a replay, are byte-identical."""
        out = []
        groups: dict[int, set] = {}
        for index, day in self.days:
            groups.setdefault(index % self.shape["inputs"], set()).add(
                digest(day.to_dict())
            )
        repeated = [k for k, v in groups.items() if len(v) > 1]
        out.append((
            "repeat_days_identical", len(repeated),
            f"{len(self.days)} days over {len(groups)} inputs"
            + (f"; differing inputs {repeated}" if repeated else ""),
        ))
        first = digest(self.days[0][1].to_dict()) if self.days else None
        out.append((
            "replay_identical", int(digest(replay.to_dict()) != first),
            f"replayed day 0: {digest(replay.to_dict())[:16]}",
        ))
        return out


class TomDay(_DayWorkload):
    """Fault-free diurnal days: the paper's hourly TOM loop (Fig. 11 scale)."""

    name = "tom_day"
    #: p99 hours moved by ~28% across seeds (the host's stalls land in the
    #: slowest 1% of ~6000 hours); p90 still has ~600 samples beyond it
    tail_pct = 90.0
    SHAPE = {"k": 16, "pairs": 1024, "n": 5, "mu": 1e4, "hours": 24, "inputs": 4}
    TOY = {"k": 4, "pairs": 16, "n": 3, "mu": 1e4, "hours": 6, "inputs": 2}

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        seeds = child_seeds(seed, 1 + self.shape["inputs"])
        self.flows, model = self._make_flows(fat_tree(self.shape["k"]), seeds[0])
        self.rates = [self._rates(self.flows, model, s) for s in seeds[1:]]
        self.days: list = []
        self.errors: list[str] = []

    def setup(self):
        cache = ComputeCache()
        set_compute_cache(cache)
        self.topology = fat_tree(self.shape["k"])
        self.session = SolverSession(self.topology, cache=cache)
        self.session.warm(self.shape["n"])

    def _run_day(self, index, clock, policy=None):
        rates = self.rates[index % self.shape["inputs"]]
        placement = initial_placement(
            self.topology, self.flows, self.shape["n"], rates,
            cache=self.session.cache,
        )
        if policy is None:
            policy = MParetoPolicy(self.topology, mu=self.shape["mu"])
        if clock is None:
            return simulate_day(
                self.topology, self.flows, policy, rates, placement,
                session=self.session,
            )
        clock.start_day()
        day = simulate_day(
            self.topology, self.flows, policy, ClockedRates(rates, clock),
            placement, session=self.session,
        )
        clock.end_day(index % self.shape["inputs"])
        return day

    def checks(self, pins):
        policy = recording(MParetoPolicy)(self.topology, mu=self.shape["mu"])
        replay = self._run_day(0, None, policy)
        out = self._repeat_checks(replay)
        pin = self._pin_check(pins, digest(replay.to_dict()))
        if pin:
            out.append(pin)
        rates = self.rates[0]
        worst, bad = 0.0, 0
        hours = _sample_hours(self.shape["hours"])
        for hour in hours:
            record = replay.records[hour - 1]
            ctx = CostContext(self.topology, self.flows.with_rates(rates.rates_at(hour)))
            expected = ctx.communication_cost(policy.trail[hour - 1])
            bad += not close(record.communication_cost, expected)
            worst = max(worst, abs(record.communication_cost - expected))
        out.append(("eq1_sampled_hours", bad, f"hours {hours}, max abs diff {worst:.3g}"))
        return out


class FaultDay(_DayWorkload):
    """Faulty days under TOM with replication (Fig. 12/14 shape)."""

    name = "fault_day"
    tail_pct = 95.0
    SHAPE = {
        "k": 8, "pairs": 64, "n": 5, "mu": 1e2, "rho": 0.5,
        "switch_rate": 0.05, "repair_hours": 4.0, "hours": 24, "inputs": 1,
    }
    TOY = {
        "k": 4, "pairs": 8, "n": 3, "mu": 1e2, "rho": 0.5,
        "switch_rate": 0.05, "repair_hours": 4.0, "hours": 6, "inputs": 2,
    }

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        seeds = child_seeds(seed, 2 + self.shape["inputs"])
        topology = fat_tree(self.shape["k"])
        self.flows, model = self._make_flows(topology, seeds[0])
        self.rates = self._rates(self.flows, model, seeds[1])
        config = FaultConfig(
            switch_rate=self.shape["switch_rate"],
            mean_repair_hours=self.shape["repair_hours"],
        )
        self.faults = [
            FaultProcess(topology, config, seed=s, horizon=self.shape["hours"])
            for s in seeds[2:]
        ]
        self.days = []
        self.errors = []

    def setup(self):
        # what every day starts with: the fabric and its APSP, a cold
        # session, and the day's TOP placement (Algorithm 3 at hour 1)
        cache = ComputeCache()
        set_compute_cache(cache)
        self.topology = fat_tree(self.shape["k"])
        self.topology.graph.distances
        SolverSession(self.topology, cache=cache)
        initial_placement(self.topology, self.flows, self.shape["n"], self.rates, cache=cache)

    def _policy(self):
        return TomReplicationPolicy(
            self.topology, mu=self.shape["mu"], rho=self.shape["rho"]
        )

    def _run_day(self, index, clock):
        cache = ComputeCache()
        session = SolverSession(self.topology, cache=cache)
        placement = initial_placement(
            self.topology, self.flows, self.shape["n"], self.rates, cache=cache
        )
        faults = self.faults[index % self.shape["inputs"]]
        if clock is None:
            return simulate_day(
                self.topology, self.flows, self._policy(), self.rates, placement,
                session=session, faults=faults,
            )
        clock.start_day()
        day = simulate_day(
            self.topology, self.flows, self._policy(),
            ClockedRates(self.rates, clock), placement,
            session=session, faults=ClockedFaults(faults, clock),
        )
        clock.end_day(index % self.shape["inputs"])
        add_cache_stats(self.window_cache_stats, cache)
        return day

    def _day_layers(self, days):
        return {"replication.replicas": sum(day.total_replications for day in days)}

    def checks(self, pins):
        replay = self._run_day(0, None)
        out = self._repeat_checks(replay)
        pin = self._pin_check(pins, digest(replay.to_dict()))
        if pin:
            out.append(pin)
        worst, bad = 0.0, 0
        log = replay.extra["fault_log"]
        hours = _sample_hours(self.shape["hours"])
        for hour in hours:
            record, entry = replay.records[hour - 1], log[hour - 1]
            expected = self._serving_cost(hour, entry)
            bad += not close(record.communication_cost, expected)
            worst = max(worst, abs(record.communication_cost - expected))
        out.append(("eq1_sampled_hours", bad, f"hours {hours}, max abs diff {worst:.3g}"))
        return out

    def _serving_cost(self, hour: int, entry: dict) -> float:
        """Eq. 1 (min over live chain copies) on the hour's degraded fabric."""
        state = self.faults[0].state_at(hour)
        if state.is_healthy:
            view, hosts = self.topology, self.topology.hosts
        else:
            view, audit = degrade(self.topology, state)
            hosts = audit.surviving_hosts
        dropped = np.asarray(entry["dropped_flows"], dtype=np.int64)
        rates = self.rates.rates_at(hour).copy()
        if dropped.size == self.flows.num_flows:
            return 0.0
        rates[dropped] = 0.0
        sources = self.flows.sources.copy()
        destinations = self.flows.destinations.copy()
        sources[dropped] = destinations[dropped] = int(hosts[0])
        flows = self.flows.with_endpoints(sources, destinations).with_rates(rates)
        ctx = CostContext(view, flows)
        copies = np.asarray([entry["placement"]] + entry["replica_rows"], dtype=np.int64)
        if copies.shape[0] == 1:
            return ctx.communication_cost(copies[0])
        return ctx.min_copy_serving_cost(copies)


def _sample_hours(hours: int) -> list[int]:
    return sorted({1, hours // 4, hours // 2, 3 * hours // 4, hours} - {0})


# -- cold Algorithm 3 -----------------------------------------------------------


class ColdTop(Workload):
    """Repeated cold Algorithm 3: the straggler-repair path (n=7)."""

    name = "cold_top"
    tail_pct = 75.0
    SHAPE = {"k": 8, "pairs": 64, "n": 7}
    TOY = {"k": 4, "pairs": 8, "n": 5}

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        model = FacebookTrafficModel()
        pairs = self.shape["pairs"]
        flows = place_vm_pairs(fat_tree(self.shape["k"]), pairs, seed=seed)
        self.flows = flows.with_rates(model.sample(pairs, rng=seed))
        self.results: list = []

    def setup(self):
        set_compute_cache(ComputeCache())
        self.topology = fat_tree(self.shape["k"])
        self.topology.graph.distances

    def measure(self, seconds, tracer=None, ladder=True) -> Window:
        samples, errors = [], []
        stats = {"hits": 0, "misses": 0, "evictions": 0}
        wall0, cpu0 = time.perf_counter(), CPU()
        deadline = wall0 + seconds
        while True:
            if tracer is not None:
                tracer.context = f"build{len(samples) + len(errors)}"
            cache = ComputeCache()
            start = CPU()
            try:
                result = dp_placement(self.topology, self.flows, self.shape["n"], cache=cache)
            except ReproError as exc:
                errors.append(repr(exc))
            else:
                samples.append(1000.0 * (CPU() - start))
                self.results.append(result)
            add_cache_stats(stats, cache)
            if time.perf_counter() >= deadline:
                break
        return Window(
            samples_ms=samples,
            ops=len(samples) + len(errors),
            cpu_s=CPU() - cpu0,
            wall_s=time.perf_counter() - wall0,
            failed_ops=len(errors),
            cache_stats=stats,
            notes={"errors": errors[-5:]},
        )

    def checks(self, pins):
        first = self.results[0]
        key = {"placement": first.placement.tolist(), "cost": first.cost}
        differ = sum(
            not (np.array_equal(r.placement, first.placement) and r.cost == first.cost)
            for r in self.results
        )
        out = [("repeat_builds_identical", differ, f"{len(self.results)} builds")]
        pin = self._pin_check(pins, digest(key))
        if pin:
            out.append(pin)
        expected = CostContext(self.topology, self.flows).communication_cost(first.placement)
        out.append(("eq1", int(not close(first.cost, expected)), f"{first.cost!r} vs {expected!r}"))
        return out


# -- the placement service ------------------------------------------------------


class ServeOpen(Workload):
    """Open-loop Poisson arrivals into the placement service."""

    name = "serve_open"
    #: p99 latency varies by ~50% across seeds on a shared 2-vCPU host
    #: (queueing amplifies the host's speed swings), so the bounded tail
    #: is p75; p99 is reported per layer (``serve.latency_ms_p99``)
    tail_pct = 75.0
    SHAPE = {
        "k": 16, "small": 32, "large": 256, "payloads": 64, "mu": 1e4,
        "rate": 100.0, "ladder": (150.0, 200.0, 250.0, 300.0, 350.0, 400.0),
        "limit_ms": 50.0, "nominal_share": 0.6, "concurrency": 2,
    }
    TOY = {
        "k": 4, "small": 4, "large": 8, "payloads": 8, "mu": 1e4,
        "rate": 50.0, "ladder": (100.0,),
        "limit_ms": 50.0, "nominal_share": 0.6, "concurrency": 2,
    }

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        shape = self.shape
        self.gap_seed = child_seeds(seed, 1)[0]
        model = FacebookTrafficModel()
        topology = fat_tree(shape["k"])
        self.payloads = []
        for p, s in enumerate(child_seeds(seed + 1, shape["payloads"])):
            pairs = shape["large"] if p % 4 == 3 else shape["small"]
            flows = place_vm_pairs(topology, pairs, seed=s)
            self.payloads.append(flows.with_rates(model.sample(pairs, rng=s)))
        # offline reference placements (migrations start from them), solved
        # in a child process: the reference session's memory must not
        # count in this process's peak RSS
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
            ns = [self._n(p) for p in range(len(self.payloads))]
            self.expected_place = pool.submit(
                _offline_places, topology, self.payloads, ns
            ).result()
        self._offline = None
        self.expected_migrate: dict = {}
        self.loop = asyncio.new_event_loop()
        self.service = None
        self.outcomes: list = []
        self._next = 0

    # request plan: payload i % P; n alternates in blocks of four; every
    # fifth request migrates off the last placement of the same n
    def _n(self, i: int) -> int:
        return 3 if (i // 4) % 2 == 0 else 5

    def _plan(self, i: int):
        p = i % self.shape["payloads"]
        if i % 5 == 4:
            for j in range(i - 1, -1, -1):
                if j % 5 != 4 and self._n(j) == self._n(i):
                    return ("migrate", p, j % self.shape["payloads"])
        return ("place", p, None)

    def setup(self):
        set_compute_cache(ComputeCache())
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
        self.topology = fat_tree(self.shape["k"])
        self.loop.run_until_complete(self._start())

    async def _start(self):
        self.service = PlacementService(
            ServeConfig(max_concurrency=self.shape["concurrency"])
        )
        await self.service.start()
        for n in (3, 5):
            await self.service.submit(self.topology, self.payloads[0], n)

    def close(self):
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    async def _request(self, i, due, tracer):
        kind, p, q = self._plan(i)
        payload = self.payloads[p]
        flows = payload.with_rates(payload.rates)
        if tracer is not None:
            tracer.request_ids[id(flows)] = i
            tracer.keep.append(flows)  # ids stay unique while the map lives
        n = self._n(i)
        sent = time.perf_counter()
        try:
            if kind == "place":
                served = await self.service.submit(self.topology, flows, n)
            else:
                prev = self.expected_place[q].placement
                served = await self.service.submit(
                    self.topology, flows, n, prev=prev, mu=self.shape["mu"]
                )
            status = "ok"
        except Overloaded:
            served, status = None, "shed"
        except Exception as exc:  # any other failure is a failed request
            served, status = repr(exc), "error"
        done = time.perf_counter()
        if tracer is not None:
            tracer.record("serve.request", due, done, i)
        return {"i": i, "due": due, "sent": sent, "done": done,
                "status": status, "served": served}

    async def _open_loop(self, rate, count, tracer):
        rng = np.random.default_rng([self.gap_seed, int(rate), self._next])
        first = self._next
        self._next += count
        start = time.perf_counter() + 0.005
        dues = start + np.cumsum(rng.exponential(1.0 / rate, size=count))
        tasks = []
        for offset, due in enumerate(dues):
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(
                self._request(first + offset, float(due), tracer)
            ))
        return await asyncio.gather(*tasks)

    def _phase(self, rate, seconds, tracer):
        count = max(1, round(rate * seconds))
        wall0, cpu0 = time.perf_counter(), CPU()
        outcomes = self.loop.run_until_complete(self._open_loop(rate, count, tracer))
        for o in outcomes:
            o["nominal"] = rate == self.shape["rate"]
        self.outcomes.extend(outcomes)
        return outcomes, CPU() - cpu0, time.perf_counter() - wall0

    def _rung(self, outcomes) -> tuple[bool, float]:
        """(meets the limit, p99 ms with sheds/errors counted as infinite)."""
        lat = np.asarray([
            1000.0 * (o["done"] - o["due"]) if o["status"] == "ok" else np.inf
            for o in outcomes
        ])
        p99 = float(np.percentile(lat, 99)) if np.isfinite(lat).all() else np.inf
        tail = lat[int(0.9 * lat.size):]
        backlog = float(np.median(tail)) > self.shape["limit_ms"]
        return (p99 <= self.shape["limit_ms"] and not backlog), p99

    def measure(self, seconds, tracer=None, ladder=True) -> Window:
        shape = self.shape
        nominal_s = seconds * (shape["nominal_share"] if ladder else 1.0)
        outcomes, cpu, wall = self._phase(shape["rate"], nominal_s, tracer)
        served = [o for o in outcomes if o["status"] == "ok"]
        window = Window(
            samples_ms=[1000.0 * (o["done"] - o["due"]) for o in served],
            ops=len(outcomes),
            cpu_s=cpu,
            wall_s=wall,
            failed_ops=len(outcomes) - len(served),
            layers=self._serve_layers(outcomes),
        )
        if ladder:
            self.ladder_requests = 0
            window.capacity, window.notes["ladder"] = self._ladder(
                outcomes, seconds * (1.0 - shape["nominal_share"])
            )
            window.notes["ladder_requests"] = self.ladder_requests
        return window

    def _ladder(self, nominal, seconds):
        """Highest ladder rate meeting the p99 limit with no growing backlog.

        Every rung runs (a transient stall on one rung does not end the
        search); the answer is interpolated between the highest passing
        rung and the failing rung above it, where p99 crosses the limit.
        """
        limit = self.shape["limit_ms"]
        rungs = [(self.shape["rate"], *self._rung(nominal))]
        for rate in self.shape["ladder"]:
            outcomes, _, _ = self._phase(rate, seconds / len(self.shape["ladder"]), None)
            self.ladder_requests += len(outcomes)
            rungs.append((rate, *self._rung(outcomes)))
        notes = [{"rate": r, "ok": ok, "p99_ms": p} for r, ok, p in rungs]
        passing = [i for i, (_, ok, _) in enumerate(rungs) if ok]
        if not passing:
            rate, _, p99 = rungs[0]
            return (rate * limit / p99 if np.isfinite(p99) else 0.0), notes
        top = passing[-1]
        rate, _, p99 = rungs[top]
        if top + 1 == len(rungs):
            return rate, notes
        above, _, above_p99 = rungs[top + 1]
        if not np.isfinite(above_p99) or above_p99 <= p99:
            return rate, notes
        return rate + (limit - p99) / (above_p99 - p99) * (above - rate), notes

    def _serve_layers(self, outcomes) -> dict:
        served = [o["served"] for o in outcomes if o["status"] == "ok"]
        count = max(1, len(outcomes))
        late = [1000.0 * (o["sent"] - o["due"]) for o in outcomes]
        queue = [1000.0 * s.queue_seconds for s in served] or [0.0]
        solve = [1000.0 * s.solve_seconds for s in served] or [0.0]
        return {
            "serve.queue_ms_p50": float(np.percentile(queue, 50)),
            "serve.queue_ms_p99": float(np.percentile(queue, 99)),
            "serve.solve_ms_p50": float(np.percentile(solve, 50)),
            "serve.batched_frac": sum(s.batched for s in served) / count,
            "serve.shed": sum(o["status"] == "shed" for o in outcomes) / count,
            "serve.degraded": sum(s.degraded for s in served) / count,
            "serve.retried": sum(s.attempts > 1 for s in served) / count,
            "serve.generator_late_ms_p99": float(np.percentile(late, 99)),
        }

    def _expected(self, i):
        kind, p, q = self._plan(i)
        if kind == "place":
            return self.expected_place[p]
        if self._offline is None:  # only once the window's peak RSS is read
            self._offline = SolverSession(self.topology, cache=ComputeCache())
        if (p, q) not in self.expected_migrate:
            self.expected_migrate[(p, q)] = self._offline.migrate(
                self.expected_place[q].placement, self.payloads[p],
                mu=self.shape["mu"],
            )
        return self.expected_migrate[(p, q)]

    def checks(self, pins):
        wrong, errors = [], []
        for o in self.outcomes:
            if o["status"] == "error" and not o["nominal"]:
                errors.append(o["i"])
                continue
            if o["status"] != "ok":
                continue
            got, want = o["served"].result, self._expected(o["i"])
            if not (np.array_equal(got.placement, want.placement) and got.cost == want.cost):
                wrong.append(o["i"])
        checked = sum(o["status"] == "ok" for o in self.outcomes)
        return [
            ("answers_match_offline", len(wrong),
             f"{checked} served answers replayed offline, {len(wrong)} differ"),
            ("ladder_request_errors", len(errors), f"{len(errors)} errored"),
        ]


def _offline_places(topology, payloads, ns):
    """Offline answers of an independent session and cache, one per payload."""
    session = SolverSession(topology, cache=ComputeCache())
    return [session.place(flows, n) for flows, n in zip(payloads, ns)]


WORKLOADS = {cls.name: cls for cls in (TomDay, FaultDay, ColdTop, ServeOpen)}
