"""Campaign orchestration: generate tests, compile with every toolchain,
execute each binary on every input, and persist run records.

Compilation fans out across a thread pool; timed executions are strictly
serialized so measurements never overlap. Both stages are content-addressed:
a binary is rebuilt only when its build key (source, toolchain, compiler
identity) changes, and a record is kept on resume only when its stamp
(build key, input, run settings) still matches. Records append to a
line-delimited log as they complete, so an interrupted campaign resumes
without duplicating work. A hanging binary first receives SIGINT and is
killed after a grace period.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from random import Random
from typing import Optional

from .emit import emit_source
from .generator import generate_program
from .inputs import gen_input_sample, read_inputs_file, write_inputs_file
from .nodes import GeneratorParams

HANG_GRACE_SECONDS = 2.0
STDERR_TAIL_BYTES = 2000  # of a CRASH or HANG run's stderr, kept in its record


class ToolchainError(RuntimeError):
    """Toolchain misconfiguration; distinct from a COMPILE_FAIL result."""


class CampaignError(RuntimeError):
    pass


@dataclass
class ToolchainSpec:
    id: str
    template: str  # must contain {src} and {out}; {flags} expands the flag list
    flags: list[str] = field(default_factory=list)
    env: dict[str, str] = field(default_factory=dict)

    def command(self, src: str, out: str) -> list[str]:
        argv = []
        for word in shlex.split(self.template):
            if word == "{flags}":
                argv.extend(self.flags)
            else:
                argv.append(word.replace("{src}", src).replace("{out}", out))
        return argv

    @cached_property  # the matrix asks once per (toolchain, test)
    def compiler(self) -> str:
        return shlex.split(self.template)[0]

    def compiler_path(self) -> str:
        """The compiler as `PATH` resolves it now; ToolchainError when absent."""
        path = shutil.which(self.compiler)
        if path is None:
            raise ToolchainError(
                f"toolchain {self.id!r}: compiler {self.compiler!r} not found")
        return path

    def runtime_env(self) -> dict[str, str]:
        merged = dict(os.environ)
        merged.update(self.env)
        return merged


@dataclass(slots=True)  # analyze holds every record of a log
class RunRecord:
    test: int
    group: int
    input: int
    toolchain: str
    status: str  # OK | CRASH | HANG | COMPILE_FAIL
    time_us: Optional[int] = None
    comp: Optional[str] = None
    exit: Optional[str] = None
    stamp: Optional[str] = None  # see _run_stamp; None in logs that predate it
    wall_us: Optional[int] = None  # spawn to exit; not part of the stamp
    stderr: Optional[str] = None  # the tail of a CRASH or HANG run's stderr

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        return cls(**json.loads(line))

    @property
    def key(self) -> tuple:
        return (self.group, self.test, self.input, self.toolchain)


@dataclass
class CampaignConfig:
    campaign_dir: Path
    toolchains: list[ToolchainSpec]
    generator: GeneratorParams = GeneratorParams()
    n_groups: int = 1
    tests_per_group: int = 10
    inputs_per_test: int = 3
    timeout_seconds: float = 60.0
    repetitions: int = 1

    # --- layout ---

    def test_source(self, group: int, test: int) -> Path:
        return Path(self.campaign_dir) / "_tests" / f"_group_{group}" / f"_test_{test}.cpp"

    def test_inputs(self, group: int, test: int) -> Path:
        return self.test_source(group, test).with_suffix(".inputs")

    def binary(self, toolchain_id: str, group: int, test: int) -> Path:
        return (Path(self.campaign_dir) / "_bin" / toolchain_id
                / f"_group_{group}" / f"_test_{test}")

    def records_path(self) -> Path:
        return Path(self.campaign_dir) / "records.jsonl"

    def verdicts_path(self) -> Path:
        return Path(self.campaign_dir) / "verdicts.jsonl"


def _mix(seed: int, group: int, test: int, salt: int = 0) -> int:
    """Stable 64-bit per-test seed derivation."""
    x = (seed ^ (group * 0x9E3779B97F4A7C15) ^ (test * 0xBF58476D1CE4E5B9)
         ^ (salt * 0x94D049BB133111EB)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def test_params(config: CampaignConfig, group: int, test: int) -> GeneratorParams:
    return replace(config.generator,
                   rng_seed=_mix(config.generator.rng_seed, group, test))


def generate_tests(config: CampaignConfig) -> list[tuple[int, int]]:
    """Write every test source and its input file; byte-stable per config."""
    written = []
    for group in range(config.n_groups):
        for test in range(config.tests_per_group):
            params = test_params(config, group, test)
            program = generate_program(params)
            source = emit_source(program, params)
            src_path = config.test_source(group, test)
            src_path.parent.mkdir(parents=True, exist_ok=True)
            src_path.write_text(source)
            rng = Random(_mix(config.generator.rng_seed, group, test, salt=1))
            samples = [gen_input_sample(program, rng)
                       for _ in range(config.inputs_per_test)]
            write_inputs_file(config.test_inputs(group, test), samples)
            written.append((group, test))
    return written


# --- compilation ---

@dataclass
class CompileResult:
    ok: bool
    diagnostics: str = ""
    cached: bool = False  # the build key matched: nothing was compiled


def compile_test(source: Path, toolchain: ToolchainSpec, out: Path) -> CompileResult:
    """Compile `source` to `out`. A compile succeeds when the compiler exits 0
    and wrote `out`; any earlier `out` is removed first."""
    argv = toolchain.command(str(source), str(out))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=toolchain.runtime_env())
    diagnostics = (proc.stdout + proc.stderr).strip()
    if proc.returncode != 0:
        return CompileResult(False, diagnostics or f"exit code {proc.returncode}")
    if not out.exists():
        return CompileResult(False, f"exit code 0 but no binary at {out}")
    return CompileResult(True, diagnostics)


def _digest(*parts) -> str:
    """sha256 of the parts as one JSON list, so that no two lists collide."""
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _compiler_fingerprint(toolchain: ToolchainSpec) -> str:
    """The compiler's identity: its resolved path, and the output and exit
    code of `<compiler> --version`."""
    path = toolchain.compiler_path()
    proc = subprocess.run([path, "--version"], capture_output=True)
    return _digest(os.path.realpath(path), proc.returncode,
                   hashlib.sha256(proc.stdout + proc.stderr).hexdigest())


def _build_key(source: bytes, toolchain: ToolchainSpec, fingerprint: str) -> str:
    """What a binary depends on: its source, the toolchain's compile command
    and environment, and the compiler's fingerprint."""
    return _digest(hashlib.sha256(source).hexdigest(), toolchain.template,
                   toolchain.flags, toolchain.env, fingerprint)


def _cached_compile(out: Path, key: str) -> Optional[CompileResult]:
    """The result of the last compile of `out`, if it was made under `key`:
    the binary, or a failure when only the compile log is there."""
    try:
        if out.with_suffix(".key").read_text() != key:
            return None
    except FileNotFoundError:
        return None
    if out.exists():
        return CompileResult(True, "cached", cached=True)
    log = out.with_suffix(".compile.log")
    if log.exists():
        return CompileResult(False, log.read_text().strip(), cached=True)
    return None


def _matrix(config: CampaignConfig):
    """Every (toolchain, group, test, build key) of the matrix, in log order
    (group, test, toolchain). Each compiler's fingerprint is taken once and
    each source is read once."""
    fingerprints = {}
    for group in range(config.n_groups):
        for test in range(config.tests_per_group):
            src = config.test_source(group, test)
            if not src.exists():
                raise CampaignError(
                    f"missing test source {src}; run the generate stage first")
            source = src.read_bytes()
            for tc in config.toolchains:
                if tc.compiler not in fingerprints:
                    fingerprints[tc.compiler] = _compiler_fingerprint(tc)
                yield tc, group, test, _build_key(source, tc, fingerprints[tc.compiler])


def build_matrix(config: CampaignConfig, *, matrix: Optional[list] = None
                 ) -> dict[tuple[str, int, int], CompileResult]:
    """Compile every (toolchain, test) pair whose build key changed;
    compilations run in parallel. The key of the last compile sits beside
    the binary in `<binary>.key`. `matrix`, when given, is
    `list(_matrix(config))` taken by the caller, so that a pipeline that
    also runs takes each compiler's fingerprint once."""
    results: dict[tuple[str, int, int], CompileResult] = {}
    misses = []
    for tc, group, test, key in _matrix(config) if matrix is None else matrix:
        cached = _cached_compile(config.binary(tc.id, group, test), key)
        if cached is None:
            misses.append((tc, group, test, key))
        else:
            results[(tc.id, group, test)] = cached

    def build(job):
        tc, group, test, key = job
        out = config.binary(tc.id, group, test)
        sidecar = out.with_suffix(".key")
        # the key is written last, so a compile killed part way leaves none
        sidecar.unlink(missing_ok=True)
        res = compile_test(config.test_source(group, test), tc, out)
        out.with_suffix(".compile.log").write_text(res.diagnostics + "\n")
        if not res.ok and out.exists():
            out.unlink()
        sidecar.write_text(key)
        return (tc.id, group, test), res

    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 2)) as pool:
        for job_key, res in pool.map(build, misses):
            results[job_key] = res
    return results


# --- execution ---

@dataclass
class ExecResult:
    status: str
    time_us: Optional[int] = None
    comp: Optional[str] = None
    exit: Optional[str] = None
    wall_us: Optional[int] = None
    stderr: Optional[str] = None


def _parse_run_output(stdout: bytes) -> Optional[tuple[str, int]]:
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return None
    comp = None
    time_us = None
    for line in text.splitlines():
        if line.startswith("comp=") and comp is None:
            comp = line[len("comp="):].strip()
        elif line.startswith("time_us=") and time_us is None:
            try:
                time_us = int(line[len("time_us="):].strip())
            except ValueError:
                return None
    if comp is None or time_us is None or time_us < 0:
        return None
    return comp, time_us


def _run_once(binary: str, args: list[str], timeout: float,
              env: Optional[dict[str, str]]) -> ExecResult:
    """One run. `wall_us` is its time from spawn to exit; a CRASH or HANG
    keeps the tail of its stderr."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGINT)
        try:
            _, stderr = proc.communicate(timeout=HANG_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
        res = ExecResult("HANG", exit=f"timeout after {timeout}s (SIGINT sent)")
    else:
        if proc.returncode < 0:
            res = ExecResult("CRASH", exit=f"signal {-proc.returncode}")
        elif proc.returncode > 0:
            res = ExecResult("CRASH", exit=f"exit code {proc.returncode}")
        elif (parsed := _parse_run_output(stdout)) is None:
            res = ExecResult("CRASH", exit="output contract violated")
        else:
            comp, time_us = parsed
            res = ExecResult("OK", time_us=time_us, comp=comp)
    res.wall_us = (time.perf_counter_ns() - start) // 1000
    if res.status != "OK":
        res.stderr = stderr[-STDERR_TAIL_BYTES:].decode("utf-8", errors="replace")
    return res


def execute(binary: Path, args: list[str], timeout_seconds: float,
            repetitions: int = 1, env: Optional[dict[str, str]] = None) -> ExecResult:
    """Run one binary on one input; HANG after the timeout, CRASH on abnormal
    termination or broken output. With repetitions, time is the minimum and
    the printed comp value must not vary across repeats, and `wall_us` is
    that of the repetition whose time is kept."""
    binary = Path(binary)
    if not binary.exists():
        raise CampaignError(f"binary {binary} does not exist")
    results = []
    for _ in range(max(1, repetitions)):
        res = _run_once(str(binary), args, timeout_seconds, env)
        if res.status != "OK":
            return res
        results.append(res)
    comps = {r.comp for r in results}
    if len(comps) > 1:
        return ExecResult("CRASH",
                          exit=f"output varied across repetitions: {sorted(comps)}")
    return min(results, key=lambda r: r.time_us)


def load_records(path: Path) -> list[RunRecord]:
    """Every complete record in the log. A final line without its newline is
    the torn tail of an interrupted write and is ignored; any other line that
    is not a record raises CampaignError naming the file and the line."""
    if not Path(path).exists():
        return []
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_json(line))
            except (ValueError, TypeError) as exc:  # bad JSON, or not a record's fields
                raise CampaignError(f"{path} line {number}: not a run record "
                                    f"({type(exc).__name__}: {exc})") from None
    return records


def _run_stamp(build_key: str, tokens: list[str], toolchain: ToolchainSpec,
               config: CampaignConfig) -> str:
    """What a record depends on: the binary's build key, the input and the
    run settings."""
    return _digest(build_key, tokens, toolchain.env, float(config.timeout_seconds),
                   config.repetitions)


@dataclass
class _RunJob:
    group: int
    test: int
    input: int
    toolchain: ToolchainSpec
    binary: Path
    tokens: list[str]
    compiled: bool
    stamp: str

    @property
    def key(self) -> tuple:
        return (self.group, self.test, self.input, self.toolchain.id)


def _run_jobs(config: CampaignConfig, matrix) -> list[_RunJob]:
    """Every (test, input, toolchain) combination of `matrix`, as `_matrix`
    yields it, with its current stamp, in log order. Every binary must be
    current: `_cached_compile` under its build key finds it, or finds its
    compile failed."""
    jobs = []
    inputs = {}
    for tc, group, test, key in matrix:
        if (group, test) not in inputs:
            inputs_path = config.test_inputs(group, test)
            if not inputs_path.exists():
                raise CampaignError(
                    f"missing inputs {inputs_path}; run the generate stage first")
            samples = read_inputs_file(inputs_path)
            if len(samples) < config.inputs_per_test:
                raise CampaignError(
                    f"{inputs_path} holds {len(samples)} of {config.inputs_per_test} "
                    "inputs; run the generate stage first")
            inputs[group, test] = samples[:config.inputs_per_test]
        binary = config.binary(tc.id, group, test)
        built = _cached_compile(binary, key)
        if built is None:
            raise CampaignError(f"{binary} is out of date; run the build stage first")
        for input_id, tokens in enumerate(inputs[group, test]):
            jobs.append(_RunJob(group, test, input_id, tc, binary, tokens, built.ok,
                                _run_stamp(key, tokens, tc, config)))
    return jobs


def execute_matrix(config: CampaignConfig, *, matrix: Optional[list] = None
                   ) -> list[RunRecord]:
    """Execute every (test, input, toolchain) combination without a record of
    its current stamp. `matrix` is as for `build_matrix`.

    Nothing is created unless every binary is current. Records of another
    stamp, without one, or of a key outside the matrix are stale: the log is
    rewritten without them, and without a torn final line, before anything
    is appended. A failed compile becomes COMPILE_FAIL records, one per
    input, so the record count is always |toolchains| x tests x inputs. The
    log is locked for the whole call, so two runs never interleave.
    """
    jobs = _run_jobs(config, _matrix(config) if matrix is None else matrix)
    stamps = {job.key: job.stamp for job in jobs}
    records_path = config.records_path()
    with open(records_path, "a+", encoding="utf-8") as log:
        try:
            fcntl.flock(log.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CampaignError(
                f"record log {records_path} is locked by another run") from None
        existing = load_records(records_path)
        kept: dict[tuple, RunRecord] = {}
        for rec in existing:
            if stamps.get(rec.key) == rec.stamp:
                kept.setdefault(rec.key, rec)
        size = os.fstat(log.fileno()).st_size
        torn = size > 0 and os.pread(log.fileno(), 1, size - 1) != b"\n"
        if len(kept) < len(existing) or torn:
            log.truncate(0)
            log.writelines(rec.to_json() + "\n" for rec in kept.values())
            log.flush()
        records = list(kept.values())
        env_by_tc = {tc.id: tc.runtime_env() for tc in config.toolchains}
        for job in jobs:
            if job.key in kept:
                continue
            if job.compiled:
                res = execute(job.binary, job.tokens, config.timeout_seconds,
                              config.repetitions, env_by_tc[job.toolchain.id])
            else:
                res = ExecResult("COMPILE_FAIL", exit="compile failed; see "
                                 f"{job.binary.with_suffix('.compile.log')}")
            rec = RunRecord(test=job.test, group=job.group, input=job.input,
                            toolchain=job.toolchain.id, **asdict(res), stamp=job.stamp)
            log.write(rec.to_json() + "\n")
            log.flush()
            records.append(rec)
    return records
