"""Domain knowledge shared by the rules and the summary builder.

The per-file rules (:mod:`repro.lint.rules`) and the whole-program
summarizer (:mod:`repro.lint.summaries`) must agree on what counts as
a wall-clock read, an unseeded RNG, a blocking call, and so on — a
helper flagged by the summarizer is exactly a helper the direct rules
would flag at its definition.  Centralizing the sets here keeps the
two layers from drifting.

This module imports nothing from the rest of the linter so both the
engine and the rule modules can depend on it freely, and neither does
its package's ``__init__`` (its re-exports are lazy): the runtime RNG
guard (:mod:`repro.sanitize.rng_guard`) reads these sets without
loading the lint engine.
"""

from __future__ import annotations

#: numpy legacy global-state API: order-sensitive process-wide state.
NP_LEGACY_GLOBAL_FNS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "bytes", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "beta", "binomial", "poisson",
    "exponential", "gamma", "rayleigh", "vonmises", "lognormal",
    "geometric", "hypergeometric", "laplace", "logistic", "multinomial",
    "multivariate_normal", "pareto", "power", "triangular", "wald",
    "weibull", "zipf",
})

#: stdlib ``random`` module-level functions (hidden shared Random()).
STDLIB_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "randbytes",
})

#: RNG constructors that must receive an explicit seed.
RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "random.Random",
})

#: Wall-clock reads (flagged as attribute/name references, so both
#: ``time.time()`` calls and ``timer=time.time`` aliases are caught).
CLOCK_READS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})

#: Environment reads outside the documented configuration seams.
ENV_READS = frozenset({"os.environ", "os.getenv", "os.environb"})

#: Synchronous calls that block the calling thread (and therefore the
#: event loop when issued from a coroutine): sleeps, process spawns,
#: socket setup, and file I/O.  Methods on socket/file *instances*
#: cannot be resolved statically and are not listed; the interprocedural
#: ``blocks`` taint catches helpers wrapping them when the constructor
#: or opener appears in the same closure.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.create_connection", "socket.getaddrinfo", "socket.gethostbyname",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "urllib.request.urlopen",
    "open", "io.open",
})

#: Pool/executor constructors whose workers live in other processes.
POOL_CONSTRUCTORS = frozenset({
    "ProcessPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "Pool",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
})

#: Pool methods that ship their first positional argument to workers.
POOL_METHODS = frozenset({
    "map", "submit", "imap", "imap_unordered", "apply", "apply_async",
    "starmap", "starmap_async", "map_async",
})

#: Well-known awaitable-returning stdlib callables (a bare-statement
#: call to one of these is a lost coroutine/future).
KNOWN_COROUTINE_FNS = frozenset({
    "asyncio.sleep", "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
    "asyncio.to_thread", "asyncio.open_connection", "asyncio.open_unix_connection",
    "asyncio.start_server", "asyncio.start_unix_server",
})

#: Seams that defer a callable to a worker thread/executor: a blocking
#: callable *referenced* (not called) inside one of these is handled.
EXECUTOR_SEAMS = frozenset({"asyncio.to_thread", "run_in_executor"})

#: The one file allowed to read the wall clock (REP002 allowlist and
#: the ``clock`` taint's absorption seam — callers of its functions are
#: clean by definition).
CLOCK_SEAM_PATHS = ("*/repro/timing.py", "repro/timing.py")

#: Files allowed to read the environment (REP004 allowlist and the
#: ``env`` taint seam): CLI entry points and the opt-in runtime
#: sanitizer switches.
ENV_SEAM_PATHS = (
    "*/__main__.py",
    "*/repro/sanitize/*",
    "repro/sanitize/*",
)

#: Synchronous lock constructors (await-while-held hazard, REP043).
SYNC_LOCK_CONSTRUCTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})

#: REP015's consumers: directories, relative to the project root (the
#: nearest ancestor of the linted paths holding ``pyproject.toml``),
#: whose files count as readers of a ``src/`` definition.  ``bench/``
#: is read for names but linted only when named on the command line;
#: the rest of ``tests/`` is not a consumer (a def only its own tests
#: read is dead).
PROJECT_MARKER = "pyproject.toml"
CONSUMER_ROOTS = ("src", "bench", "benchmarks", "examples", "scripts", "tests/oracles")

#: Decorators that register a definition in a table (the rule
#: registry): the registry reads it, not a name (REP015 exemption).
REGISTERING_DECORATORS = frozenset({"register"})
