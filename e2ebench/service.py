"""The ``serve`` and ``session`` workloads: closed-loop HTTP clients.

The clients share one asyncio loop; each sends its next op only after the
previous reply, because every waiting request holds a connection.  The
work is fixed per run: ``SERVE_OPS_PER_SECOND * seconds`` requests, or
``SESSION_OPS_PER_SECOND * seconds`` session calls, sized to last about
``seconds`` on the current program.

Untraced, the clients talk to a real ``repro serve`` process with the
default ``ServeConfig``.  Traced, the benchmark hosts ``SolveService`` and
``start_service`` in its own process so the layers can be wrapped.
"""

from __future__ import annotations

import asyncio
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from e2ebench.checks import check_serve, check_session_call
from e2ebench.workloads import SESSION_CALLS, serve_item, session_plan

#: Closed-loop clients per workload.  ``serve`` needs two so the batcher
#: has requests to batch.  ``session`` uses one: the service answers
#: session calls one at a time, so a second client added no throughput
#: (62 calls/s with one or two) but made each call queue behind the
#: other's, which doubled the spread of ``latency_p50_ms`` across runs.
CLIENTS = {"serve": 2, "session": 1}
SERVE_OPS_PER_SECOND = 13
SESSION_OPS_PER_SECOND = 62
#: ``ServeConfig.default_max_conflicts``: the budget of every op here.
MAX_CONFLICTS = 100_000
#: Times the checking re-solves run per workload; ``us_per_prop`` pools
#: the passes.  One pass times only ~3 s (serve) or ~1 s (session) of
#: solving, and on a shared 2-vCPU host the speed of consecutive 1 s
#: passes of the same solves differed by up to 35%.
RESOLVE_PASSES = {"serve": 2, "session": 3}
#: Seconds a server gets to print its banner and answer ``/healthz``.
START_TIMEOUT = 60.0

_clock = time.perf_counter_ns


# -- inputs -------------------------------------------------------------------


def inputs(workload: str, seed: int, seconds: float):
    """The seeded op stream: serve items, or per-client session plans."""
    if workload == "serve":
        return [serve_item(seed, i) for i in range(round(SERVE_OPS_PER_SECOND * seconds))]
    clients = CLIENTS["session"]
    per_client = max(1, round(SESSION_OPS_PER_SECOND * seconds / clients))
    plans = math.ceil(per_client / SESSION_CALLS)
    return {
        "calls_per_client": per_client,
        "plans": [[session_plan(seed, c, k) for k in range(plans)] for c in range(clients)],
    }


# -- the real server ------------------------------------------------------------


class ServerProcess:
    """A ``repro serve --port 0`` child of this process."""

    def __init__(self, root: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT):
                self.stop()
                raise RuntimeError("repro serve printed no banner")
        banner = self.proc.stdout.readline()
        if "http://" not in banner:
            self.stop()
            raise RuntimeError(f"repro serve failed to start: {banner!r}")
        return int(banner.rsplit(":", 1)[1].strip().rstrip("/"))

    def stop(self) -> None:
        """SIGINT (graceful drain), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def start_server(root: str, workload: str, seed: int) -> ServerProcess:
    """Spawn a server and return once it answered ``/healthz`` and one
    warm-up op (the end of set-up)."""
    server = ServerProcess(root)
    try:
        asyncio.run(_ready(server.port, workload, seed))
    except BaseException:
        server.stop()
        raise
    return server


async def _ready(port: int, workload: str, seed: int) -> None:
    from repro.serve import ServeClient

    client = ServeClient("127.0.0.1", port)
    await client.wait_ready(timeout=START_TIMEOUT)
    await _warm_up(client, workload, seed)


async def _warm_up(client, workload: str, seed: int) -> None:
    if workload == "serve":
        await client.solve(serve_item(seed, -1).dimacs)
        return
    plan = session_plan(seed, -1, 0)
    created = await client.session_create(dimacs=plan.base.dimacs)
    call = plan.calls[0]
    await client.session_solve(created.json["id"], add=call.add, assumptions=call.assume)
    await client.session_close(created.json["id"])


# -- closed-loop clients --------------------------------------------------------


async def _request(coro):
    """(code, body) of one call; a transport error is code 0."""
    try:
        reply = await coro
        return reply.code, reply.json
    except (OSError, asyncio.IncompleteReadError) as exc:
        return 0, {"error": repr(exc)}


async def serve_clients(port: int, items, tracer=None):
    """Every item once, over ``CLIENTS["serve"]`` closed loops; (records, wall ns).

    A record is (code, body, latency ns), in item order.
    """
    from repro.serve import ServeClient

    client = ServeClient("127.0.0.1", port)
    pending = iter(range(len(items)))
    records: List[Optional[tuple]] = [None] * len(items)

    async def loop():
        for i in pending:
            start = _clock()
            code, body = await _request(client.solve(items[i].dimacs))
            end = _clock()
            records[i] = (code, body, end - start)
            if tracer is not None:
                tracer.record("client.request", start, end, op=i)

    start = _clock()
    await asyncio.gather(*(loop() for _ in range(CLIENTS["serve"])))
    return records, _clock() - start


async def session_clients(port: int, stream, tracer=None):
    """Each client walks its plans until it made its share of calls.

    A record is (client, plan, call or None, code, body, latency ns); a
    refused ``POST /sessions`` is one record with call None.
    """
    from repro.serve import ServeClient

    client = ServeClient("127.0.0.1", port)
    quota = stream["calls_per_client"]
    records: List[tuple] = []

    async def loop(c: int):
        made = 0
        for k, plan in enumerate(stream["plans"][c]):
            if made >= quota:
                break
            code, body = await _request(client.session_create(dimacs=plan.base.dimacs))
            if code != 201:
                records.append((c, k, None, code, body, 0))
                made += 1
                continue
            sid = body["id"]
            for j, call in enumerate(plan.calls[: quota - made]):
                start = _clock()
                code, body = await _request(
                    client.session_solve(sid, add=call.add, assumptions=call.assume)
                )
                end = _clock()
                records.append((c, k, j, code, body, end - start))
                if tracer is not None:
                    tracer.record("client.call", start, end, op=(c, k, j))
                made += 1
            await _request(client.session_close(sid))

    start = _clock()
    await asyncio.gather(*(loop(c) for c in range(len(stream["plans"]))))
    return records, _clock() - start


CLIENT_LOOPS = {"serve": serve_clients, "session": session_clients}


def run_against(port: int, workload: str, stream):
    return asyncio.run(CLIENT_LOOPS[workload](port, stream))


def run_hosted(workload: str, seed: int, stream, tracer, counts):
    """Host ``SolveService`` in this process, trace it, drive the clients."""
    return asyncio.run(_hosted(workload, seed, stream, tracer, counts))


async def _hosted(workload, seed, stream, tracer, counts):
    from repro.models import NeuroSelect
    from repro.serve import ServeClient, ServeConfig, SolveService
    from repro.serve.http import bound_address, start_service

    from e2ebench.layers import instrument_service

    service = SolveService(NeuroSelect(seed=0), ServeConfig())
    server, _ = await start_service(service, "127.0.0.1", 0)
    port = bound_address(server)[1]
    try:
        await _warm_up(ServeClient("127.0.0.1", port), workload, seed)
        instrument_service(tracer, counts, service)
        return await CLIENT_LOOPS[workload](port, stream, tracer)
    finally:
        tracer.restore()
        server.close()
        await server.wait_closed()
        await service.stop(drain=True)


# -- checks -------------------------------------------------------------------------


def check_serve_records(items, records) -> Tuple[List[Optional[str]], int, int]:
    """Verdicts per request, plus the propagations and solve ns of the
    direct solves that checked them.

    The direct solves run ``RESOLVE_PASSES["serve"]`` times; the verdicts
    come from the first pass and the solve ns is the mean pass.
    """
    from repro.cnf import parse_dimacs
    from repro.policies import get_policy
    from repro.solver import Solver, SolverConfig

    cnfs = [parse_dimacs(item.dimacs) for item in items]

    def direct_pass():
        answers, props, solve_ns = [], 0, 0
        for cnf, (code, body, _) in zip(cnfs, records):
            if not (200 <= code < 300 and body.get("policy")):
                answers.append(("no answer", -1))
                continue
            solver = Solver(cnf, policy=get_policy(body["policy"]), config=SolverConfig())
            start = _clock()
            result = solver.solve(max_conflicts=body["max_conflicts"])
            solve_ns += _clock() - start
            answers.append((result.status.value, result.stats.propagations))
            props += result.stats.propagations
        return answers, props, solve_ns

    passes = [direct_pass() for _ in range(RESOLVE_PASSES["serve"])]
    answers, props, _ = passes[0]
    verdicts = [
        check_serve(cnf, item.expected, code, body or {}, direct)
        for cnf, item, (code, body, _), direct in zip(cnfs, items, records, answers)
    ]
    return verdicts, props, statistics.mean(p[2] for p in passes)


def check_session_records(stream, records) -> Tuple[List[Optional[str]], int, int]:
    """Verdicts per call, replaying every session in-process.

    The replay applies each call's clauses and the policy the service
    reported, then solves under the same assumptions and budget.  It must
    reach the service's status; its propagations and solve ns are
    returned with the verdicts.  The replay runs
    ``RESOLVE_PASSES["session"]`` times; the verdicts come from the first
    pass and the solve ns is the mean pass.
    """
    from repro.cnf import parse_dimacs
    from repro.policies import get_policy
    from repro.solver import Solver, SolverConfig, Status
    from repro.solver.session import SolverSession

    def unsat_under(cnf, core) -> bool:
        # Solver copies before it grows a formula, so ``cnf`` is safe.
        return Solver(cnf).solve(assumptions=list(core)).status is Status.UNSATISFIABLE

    by_session = {}
    for record in records:
        by_session.setdefault(record[:2], []).append(record)

    def replay_pass(verdicts):
        props, solve_ns = 0, 0
        for (c, k), calls in by_session.items():
            plan = stream["plans"][c][k]
            accumulated = parse_dimacs(plan.base.dimacs)
            replay = SolverSession(accumulated.copy(), config=SolverConfig())
            # Cores proven UNSAT earlier in this session: clauses are only
            # ever added, so they stay UNSAT.
            proven = set()

            def core_unsat(core) -> bool:
                key = frozenset(core)
                if key not in proven and unsat_under(accumulated, core):
                    proven.add(key)
                return key in proven

            for _, _, j, code, body, _ in calls:
                if j is None:
                    if verdicts is not None:
                        verdicts.append(f"POST /sessions answered {code}: {body}")
                    continue
                call = plan.calls[j]
                for clause in call.add:
                    if verdicts is not None:
                        accumulated.add_clause(clause)
                    replay.add(*clause)
                verdict = None
                if 200 <= code < 300:
                    if body.get("policy") != replay.policy_name:
                        replay.set_policy(get_policy(body["policy"]))
                    before = replay.solver.stats.propagations
                    start = _clock()
                    result = replay.solve(
                        assumptions=list(call.assume), max_conflicts=MAX_CONFLICTS
                    )
                    solve_ns += _clock() - start
                    props += replay.solver.stats.propagations - before
                    if result.status.value != body.get("status"):
                        verdict = (
                            f"service answered {body.get('status')}, "
                            f"in-process replay {result.status.value}"
                        )
                if verdicts is not None:
                    verdicts.append(verdict or check_session_call(
                        [clause.literals for clause in accumulated.clauses],
                        call.assume, call.expected, code, body or {},
                        core_unsat,
                    ))
        return props, solve_ns

    verdicts: List[Optional[str]] = []
    props, first_ns = replay_pass(verdicts)
    passes = [first_ns] + [
        replay_pass(None)[1] for _ in range(RESOLVE_PASSES["session"] - 1)
    ]
    return verdicts, props, statistics.mean(passes)
