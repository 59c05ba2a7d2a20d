"""Frontend benchmark: PyLite lowering + exploration counters per pack.

For each scenario package (parser / state machine / codec) this runs the
whole pipeline — ast → TAC → CFG → LVM emission → symbolic exploration —
and reports the lowering footprint (TAC instructions, CFG blocks, LVM
instructions) next to the exploration counters (paths, solver queries)
and the §6.6 differential verdict, so a lowering change that bloats the
bytecode or multiplies solver queries shows up in the report.  Gates
are counters and the differential check — never wall-clock.
"""

from repro.bench.reporting import render_table
from repro.chef.options import ChefConfig
from repro.frontend import compile_pylite
from repro.symtest.runner import SymbolicTestRunner
from repro.targets import pylite_targets


def _lowering_counters(source: str) -> dict:
    compiled = compile_pylite(source)
    tac_instrs = sum(len(f.instrs) for f in compiled.module.functions.values())
    blocks = sum(len(cfg.blocks) for cfg in compiled.cfgs.values())
    program = compiled.build_program()
    lvm_instrs = sum(len(f.instrs) for f in program.functions.values())
    return {"tac_instrs": tac_instrs, "cfg_blocks": blocks, "lvm_instrs": lvm_instrs}


def test_frontend_packs(benchmark, settings, report):
    budget = max(settings.budget, 2.0)

    def run_all():
        rows = []
        for target in pylite_targets():
            runner = SymbolicTestRunner(
                target.source,
                target.symbolic_test(),
                ChefConfig(time_budget=budget),
            )
            result = runner.run_symbolic()
            reports = runner.engine.differential_sweep(result.suite)
            rows.append((target, result, reports))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = []
    for target, result, diff_reports in rows:
        lowering = _lowering_counters(target.source)
        mismatches = [r for r in diff_reports if not r.matches]
        queries = result.solver_stats.get("queries", 0)
        table.append(
            [
                target.name,
                lowering["tac_instrs"],
                lowering["cfg_blocks"],
                lowering["lvm_instrs"],
                result.hl_paths,
                result.ll_paths,
                queries,
                f"{len(diff_reports) - len(mismatches)}/{len(diff_reports)}",
            ]
        )

        # Hard gates: exploration found real paths and CPython agrees
        # on every single one of them (§6.6 analogue).
        assert result.hl_paths >= 2, target.name
        assert not mismatches, [(target.name, r.detail) for r in mismatches]

    report(
        "PyLite frontend: lowering + exploration counters per pack "
        f"(budget {budget:.1f}s)",
        render_table(
            [
                "package", "TAC", "blocks", "LVM", "HL paths",
                "LL paths", "queries", "diff",
            ],
            table,
        ),
    )
