#!/usr/bin/env python3
"""FASTA -> MAF benchmark for the darwin-wga aligner.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Builds `darwin-wga`, the input generator `perfbench-synth` and the
per-layer timer `perfbench-layers` from the repository sources into
.bench_build/ (see perfbench/CMakeLists.txt). A workload is a list of
paper species-pair analogues, each grown from one fixed ancestor; --seed
drives their branch evolutions (perfbench/synth.cpp says why). Genomes
have two chromosomes of chromosome_bp each; sizes in the comments below
are per genome.

Set-up writes the inputs (untimed), then times the aligner's cold start
SETUP_REPEATS times: `darwin-wga align` on a fresh copy of a small probe
pair in an empty directory, process start to MAF written. Its fixed
costs (ingest, the dense seed table, threads) dominate, so work a later
change moves out of the alignment into start-up shows; setup_s is the
median. Then, for --seconds:

  --trace 0  one `darwin-wga align` process per pair, FASTA in to MAF
             out, pairs in turn and one at a time (a closed loop with one
             client), at least once over every pair; prints the
             end-to-end metrics.
  --trace 1  one perfbench-layers run per pair, every pair once whatever
             --seconds says; it calls every pipeline layer itself with a
             span around it. Prints the per-layer metrics, each summed
             over the pairs.

Times are scaled to a reference host: perfbench-calibrate, a fixed job
sharing no code with the aligner, runs right after every timed
alignment. Wall times (align_ms, setup_s) are multiplied by
REFERENCE_CALIBRATION_MS over that calibration's wall time. CPU time
(align_cpu_ms) is multiplied by REFERENCE_CALIBRATION_CPU_MS over the
calibration's own CPU time: CPU time leaves out time other tenants hold
the cores, but not the slowdown of sharing a core's caches and
hyperthread sibling with them, and the calibration's CPU time shows
that. Raw values go to stderr. Per-layer times are raw.

Every MAF is checked against its inputs: each row's bases must equal the
FASTA at the row's coordinates, and each block must rescore to its
`score=` under the paper's scoring (Table II(a), gap 430 + 30 per extra
base). Every later MAF of a pair must be byte-identical to its first.
The last stdout line is one JSON object; everything else goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
CLI = os.path.join(CMAKE_DIR, "darwin-wga")
SYNTH = os.path.join(CMAKE_DIR, "perfbench-synth")
LAYERS = os.path.join(CMAKE_DIR, "perfbench-layers")
CALIBRATE = os.path.join(CMAKE_DIR, "perfbench-calibrate")
REQUIRED_SOURCES = ("src/CMakeLists.txt", "tools/darwin_wga_cli.cpp")

# Paper species-pair analogues, most to least divergent, under the CLI's
# default (darwin) preset.
WORKLOADS = {
    # The canonical set: all four paper pairs at 120 kbp. Divergence sets
    # the layer mix: on ce11-cb4 most BSW tiles fail Hf; on the close
    # flies anchors extend across whole islands and GACT-X dominates.
    "paper": {"pairs": ("ce11-cb4", "dm6-dp4", "dm6-droYak2", "dm6-droSim1"),
              "chromosome_bp": 60000},
    # One larger pair, 240 kbp: alignment work grows faster than the
    # genome (more paralog copies seed more hits and duplicate
    # extensions), while the dense seed table stays the same size. A
    # 1 Mbp pair takes ~100 s per alignment on a 4-thread host, and its
    # traced run ~8 min; at 240 kbp extension and filter take the same
    # shares as at 1 Mbp within a point (85% and 7%), though the index
    # takes 6% (1% at 1 Mbp) and chaining 0.5% (6%).
    "large": {"pairs": ("ce11-cb4",), "chromosome_bp": 120000},
}
ANCESTOR_SEED = 2
# The cold-start probe: fixed, small, so fixed costs dominate.
PROBE = {"pair": "ce11-cb4", "chromosome_bp": 10000, "seed": 0}
SETUP_REPEATS = 7
# Times read as if perfbench-calibrate had taken this long, in wall and
# in CPU time. Fixed units, so that figures compare across runs and hosts;
# about what the job takes on an idle 4-thread host.
REFERENCE_CALIBRATION_MS = 300.0
REFERENCE_CALIBRATION_CPU_MS = 1000.0
PROCESS_TIMEOUT_S = 120

# Table II(a) of the paper; N scores -100 against anything.
MATRIX = {
    "A": {"A": 91, "C": -90, "G": -25, "T": -100},
    "C": {"A": -90, "C": 100, "G": -100, "T": -25},
    "G": {"A": -25, "C": -100, "G": 100, "T": -90},
    "T": {"A": -100, "C": -25, "G": -90, "T": 91},
}
GAP_OPEN = 430  # first gap base
GAP_EXTEND = 30  # each further base
COMPLEMENT = str.maketrans("ACGTN", "TGCAN")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd):
    """Runs cmd with its output on stderr; raises on a non-zero exit."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("source tree not found (missing %s); run from the "
                         "repository root" % ", ".join(missing))
    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [BENCH_DIR]:
            shutil.rmtree(CMAKE_DIR)  # configured for another checkout
    run_checked(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_checked(["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 1), "--target",
                 "darwin-wga", "perfbench-synth", "perfbench-layers", "perfbench-calibrate"])


def run_timed(cmd, log_path):
    """Runs cmd to completion; returns (wall s, CPU s, max RSS MiB)."""
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, errors="replace") as f:
            log(f.read()[-2000:])
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def calibrate():
    """One perfbench-calibrate run: (its own wall ms, its CPU ms)."""
    proc = subprocess.Popen([CALIBRATE], stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("perfbench-calibrate failed (%d)" % proc.returncode)
    return float(output.split()[0]), (usage.ru_utime + usage.ru_stime) * 1e3


def read_fasta(path):
    chromosomes = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith(">"):
                name = line[1:].split()[0]
                chromosomes[name] = []
            elif line:
                chromosomes[name].append(line.upper())
    return {k: "".join(v) for k, v in chromosomes.items()}


def block_score(target_row, query_row):
    score = 0
    gap = None  # the row holding the open gap
    for t, q in zip(target_row, query_row):
        if t == "-" or q == "-":
            side = "t" if t == "-" else "q"
            score -= GAP_EXTEND if gap == side else GAP_OPEN
            gap = side
        else:
            gap = None
            score += MATRIX.get(t, {}).get(q, -100)
    return score


def check_maf(path, target, query):
    """Validates a MAF against its FASTA inputs; returns its block count."""
    blocks = []
    with open(path) as f:
        if not f.readline().startswith("##maf"):
            raise BenchError("%s: missing ##maf header" % path)
        for line in f:
            if line.startswith("a "):
                blocks.append((int(line.split("score=")[1].split()[0]), []))
            elif line.startswith("s "):
                blocks[-1][1].append(line.split())
    if not blocks:
        raise BenchError("%s: no alignments" % path)
    for score, rows in blocks:
        if len(rows) != 2 or len(rows[0][6]) != len(rows[1][6]):
            raise BenchError("%s: malformed block" % path)
        for (_, src, start, size, strand, src_size, text), genome in zip(rows, (target, query)):
            start, size = int(start), int(size)
            chrom = genome.get(src)
            if chrom is None or len(chrom) != int(src_size):
                raise BenchError("%s: unknown sequence or length for %s" % (path, src))
            if strand == "-":
                chrom = chrom.translate(COMPLEMENT)[::-1]
            bases = text.replace("-", "").upper()
            if len(bases) != size or chrom[start:start + size] != bases:
                raise BenchError("%s: row %s:%d+%d does not match the FASTA" % (path, src, start, size))
        if block_score(rows[0][6].upper(), rows[1][6].upper()) != score:
            raise BenchError("%s: block score %d does not rescore" % (path, score))
    return len(blocks)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def align_cmd(prefix, out):
    return [CLI, "align", "--target", prefix + "_target.fa", "--query", prefix + "_query.fa",
            "--out", out]


def synthesize(pair, chromosome_bp, seed, prefix):
    run_timed([SYNTH, "--pair", pair, "--size", str(chromosome_bp),
               "--ancestor-seed", str(ANCESTOR_SEED), "--seed", str(seed),
               "--prefix", prefix], prefix + ".log")


def make_inputs(workload, seed, work):
    """Writes the workload's pairs and the probe pair, twice, and checks
    that both writes agree. Returns (pair prefixes, probe prefix)."""
    copies = []
    for copy in range(2):
        d = os.path.join(work, "inputs%d" % copy)
        os.makedirs(d)
        prefixes = [os.path.join(d, "%d_%s" % (i, pair)) for i, pair in enumerate(workload["pairs"])]
        for i, (pair, prefix) in enumerate(zip(workload["pairs"], prefixes)):
            synthesize(pair, workload["chromosome_bp"], seed * 1000 + i, prefix)
        probe = os.path.join(d, "probe")
        synthesize(PROBE["pair"], PROBE["chromosome_bp"], PROBE["seed"], probe)
        copies.append((prefixes, probe,
                       [digest(p + side) for p in prefixes + [probe]
                        for side in ("_target.fa", "_query.fa")]))
    if copies[0][2] != copies[1][2]:
        raise BenchError("the same seed gave different inputs")
    return copies[0][0], copies[0][1]


class OutputCheck:
    """The first MAF of each pair must pass check_maf; later ones must match it."""

    def __init__(self):
        self.references = {}

    def ok(self, prefix, maf):
        if prefix not in self.references:
            try:
                blocks = check_maf(maf, read_fasta(prefix + "_target.fa"),
                                   read_fasta(prefix + "_query.fa"))
            except (BenchError, ValueError, IndexError) as error:  # malformed lines too
                log("wrong output: %s" % error)
                return False
            log("%s: %d alignments verified" % (os.path.basename(prefix), blocks))
            self.references[prefix] = digest(maf)
            return True
        if digest(maf) != self.references[prefix]:
            log("wrong output: %s differs from the first MAF of its pair" % maf)
            return False
        return True


def to_reference(wall, cpu):
    """Wall and CPU seconds in reference-host units, by a calibration taken
    right after them: host speed drifts by up to 2x within minutes on a
    shared machine, and it moves the calibration job alike."""
    calibration_ms, calibration_cpu_ms = calibrate()
    return (wall * REFERENCE_CALIBRATION_MS / calibration_ms,
            cpu * REFERENCE_CALIBRATION_CPU_MS / calibration_cpu_ms)


def cold_starts(probe, work):
    """SETUP_REPEATS cold starts of the aligner on the probe pair, each on
    a fresh copy of its FASTA files in an empty directory, so no file
    the aligner might leave beside its inputs is reused. Returns (scaled
    wall seconds per start, wrong outputs)."""
    check = OutputCheck()
    times, failed = [], 0
    for r in range(SETUP_REPEATS):
        d = os.path.join(work, "cold%d" % r)
        os.makedirs(d)
        prefix = os.path.join(d, "probe")
        for side in ("_target.fa", "_query.fa"):
            shutil.copyfile(probe + side, prefix + side)
        wall, cpu, _ = run_timed(align_cmd(prefix, prefix + ".maf"), prefix + ".log")
        times.append(to_reference(wall, cpu)[0])
        # One reference for all copies: every start must write the same MAF.
        failed += not check.ok(probe, prefix + ".maf")
    return times, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(prefixes, seconds, work):
    """One `darwin-wga align` per pair in turn, cycling over the pairs until
    --seconds pass and at least once over all of them, each followed by a
    host calibration. Returns scaled seconds."""
    samples = {p: [] for p in prefixes}
    rss = []
    check = OutputCheck()
    attempted = failed = 0
    out = os.path.join(work, "run.maf")
    deadline = time.perf_counter() + seconds
    while attempted < len(prefixes) or time.perf_counter() < deadline:
        prefix = prefixes[attempted % len(prefixes)]
        wall, cpu, peak = run_timed(align_cmd(prefix, out), os.path.join(work, "run.log"))
        samples[prefix].append(to_reference(wall, cpu))
        log("%s: %.3f s wall, %.3f s CPU; scaled %.3f s, %.3f s"
            % ((os.path.basename(prefix), wall, cpu) + samples[prefix][-1]))
        rss.append(peak)
        attempted += 1
        failed += not check.ok(prefix, out)
    log("end to end: %d alignments over %d pairs" % (attempted, len(prefixes)))
    # The median of each pair's runs, averaged over pairs: the median drops
    # a burst that hit only the alignment or only its calibration, and
    # averaging gives every pair the same weight however many times the
    # loop reached it.
    scaled = {
        "align_s": statistics.mean(statistics.median(s[0] for s in p) for p in samples.values()),
        "align_cpu_s": statistics.mean(statistics.median(s[1] for s in p)
                                       for p in samples.values()),
        "peak_rss_mb": statistics.median(rss),
    }
    return attempted, failed, scaled


PER_LAYER_UNITS = {
    "ingest_ms": "ms", "index_ms": "ms", "seed_ms": "ms", "filter_ms": "ms",
    "extend_ms": "ms", "chain_ms": "ms", "maf_write_ms": "ms", "layers_total_ms": "ms",
    "extend_1t_dp_fill_ms": "ms", "extend_1t_traceback_ms": "ms", "extend_1t_absorb_ms": "ms",
    "seed_hits": "count", "filter_tiles": "count", "filter_cells": "count",
    "filter_pass_ratio": "ratio", "filter_gcells_per_s": "Gcell/s",
    "extend_anchors": "count", "extend_absorbed": "count", "extend_duplicates": "count",
    "extend_kept_ratio": "ratio", "extend_cells": "count", "extend_gcells_per_s": "Gcell/s",
    "traceback_ops": "count", "alignments": "count", "matched_bp": "bp",
}
LAYERS_IN_ORDER = ("ingest", "index", "seed", "filter", "extend", "chain", "maf_write")


def layer_metrics(records):
    """Per-layer numbers of perfbench-layers runs, summed over the runs."""
    spans, c = {}, {}
    for record in records:
        for s in record["spans"]:
            spans[s["name"]] = spans.get(s["name"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e6
        for name, value in record["counts"].items():
            c[name] = c.get(name, 0) + value
    tile_ms = c["timer_ns.extend_split.tile"] / 1e6
    score_only_ms = c["timer_ns.extend_split.score_only"] / 1e6
    m = {name + "_ms": spans[name] for name in LAYERS_IN_ORDER}
    m["layers_total_ms"] = sum(spans[name] for name in LAYERS_IN_ORDER)
    m["extend_1t_dp_fill_ms"] = score_only_ms
    m["extend_1t_traceback_ms"] = tile_ms - score_only_ms
    m["extend_1t_absorb_ms"] = spans["extend_split"] - tile_ms - score_only_ms
    m["seed_hits"] = c["seed_hits"]
    m["filter_tiles"] = c["filter_tiles"]
    m["filter_cells"] = c["filter_cells"]
    m["filter_pass_ratio"] = c["filter_passed"] / max(1, c["filter_tiles"])
    m["filter_gcells_per_s"] = c["filter_cells"] / max(1e-9, spans["filter"] * 1e6)
    m["extend_anchors"] = c["extended"]
    m["extend_absorbed"] = c["absorbed"]
    m["extend_duplicates"] = c["duplicates"]
    m["extend_kept_ratio"] = c["alignments"] / max(1, c["extended"])
    m["extend_cells"] = c["extend_cells"]
    m["extend_gcells_per_s"] = c["extend_cells"] / max(1e-9, spans["extend"] * 1e6)
    m["traceback_ops"] = c["traceback_ops"]
    m["alignments"] = c["alignments"]
    m["matched_bp"] = c["matched_bases"]
    return m


def measure_layers(prefixes, work):
    """perfbench-layers once per pair; its MAF must pass check_maf."""
    check = OutputCheck()
    records = []
    failed = 0
    out = os.path.join(work, "layers.maf")
    log_path = os.path.join(work, "layers.log")
    for prefix in prefixes:
        run_timed([LAYERS, "--target", prefix + "_target.fa", "--query", prefix + "_query.fa",
                   "--out", out], log_path)
        with open(log_path) as f:
            records += [json.loads(line) for line in f if line.startswith("{")]
        failed += not check.ok(prefix, out)
    if len(records) != len(prefixes):
        raise BenchError("perfbench-layers printed %d records for %d pairs"
                         % (len(records), len(prefixes)))
    metrics = {name: metric(value, PER_LAYER_UNITS[name])
               for name, value in layer_metrics(records).items()}
    return len(prefixes), failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    build()
    work = os.path.join(BUILD_DIR, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prefixes, probe = make_inputs(workload, args.seed, work)
        setup_times, setup_failed = cold_starts(probe, work)
        if args.trace:
            attempted, failed, metrics = measure_layers(prefixes, work)
        else:
            attempted, failed, scaled = measure_end_to_end(prefixes, args.seconds, work)
            metrics = {
                "align_ms": metric(scaled["align_s"] * 1e3, "ms"),
                "align_cpu_ms": metric(scaled["align_cpu_s"] * 1e3, "ms"),
                "peak_rss_mb": metric(scaled["peak_rss_mb"], "MiB"),
                "setup_s": metric(statistics.median(setup_times), "s"),
            }
        failed += setup_failed
        attempted += SETUP_REPEATS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log("error: %s" % error)
        sys.exit(2)
