"""One benchmark client: a fresh interpreter that runs one workload's commands.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``workload``, ``small`` (bool), ``mode`` ("setup", "run"
or "trace"), ``t_spawn`` (the parent's time.perf_counter() just before it
started this process; on Linux that clock is system-wide) and, in trace
mode, ``spans`` (a path to write the spans to).  The last line printed is
one JSON object with the timings and the outcome of every command.

Timed intervals, as the CLI user sees them:
- setup_s: process start through ``import liecomposite`` and every argv
  turned into a RunConfig;
- wall_s and cpu_s: from calling ``cli.run`` for the first command through
  rendering the JSON report of the last one.
The calibration loop (calibration.py) runs after set-up and again after
the timed interval; its times are reported as ``calibration_s``.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    from workloads import command_lines
    from liecomposite import cli

    argvs = command_lines(spec["workload"], spec["small"])
    parser = cli.build_parser()
    configs = [cli._config_from_args(parser.parse_args(argv)) for argv in argvs]
    setup_s = time.perf_counter() - spec["t_spawn"]
    from calibration import calibrate

    calibration_before = calibrate()
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s, "calibration_s": [calibration_before]}))
        return 0

    tracer = undo = None
    if spec["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)

    texts = []
    codes = []
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    for config in configs:
        code, report, payload = cli.run(config)
        texts.append(cli._render(config, report, payload))
        codes.append(code)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    calibration_after = calibrate()

    import hashlib
    import resource

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": [calibration_before, calibration_after],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outcomes": [],
    }
    for argv, code, text in zip(argvs, codes, texts):
        items = json.loads(text)["items"]
        verdicts = {}
        for item in items:
            verdicts[item["verdict"]] = verdicts.get(item["verdict"], 0) + 1
        result["outcomes"].append({
            "command": argv[0],
            "exit": code,
            "items": len(items),
            "verdicts": verdicts,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "bytes": len(text.encode("utf-8")),
        })

    if tracer is not None:
        undo()
        metrics = tracing.layer_metrics(tracing.summarize(tracer), tracer.counters)
        metrics.update(tracing.cache_metrics())
        metrics["cli.payload_bytes"] = sum(o["bytes"] for o in result["outcomes"])
        result["layers"] = metrics
        tracer.write(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
