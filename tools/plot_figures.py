#!/usr/bin/env python3
"""Render the speedup figures from the bench binaries' --csv output.

Usage:
    build/bench/bench_fig --app water --csv | tools/plot_figures.py water.png
    tools/plot_figures.py --all build/bench out/    # every figure

Produces matplotlib charts shaped like the paper's Figures 1-14 (speedup
vs CPUs, one line per cluster count, original and optimized side by
side). Falls back to an ASCII rendition when matplotlib is unavailable,
so the script is usable on bare build machines.
"""

import csv
import io
import subprocess
import sys
from pathlib import Path

FIGS = ["water", "tsp", "asp", "atpg", "ra", "ida", "acp", "sor"]
SERIES = ["orig 1cl", "orig 2cl", "orig 4cl", "opt 1cl", "opt 2cl", "opt 4cl"]


def parse(text):
    """Parses one bench --csv output: title line '# ...' then CSV."""
    title = "speedup"
    rows = []
    lines = [l for l in text.splitlines() if l.strip()]
    body = []
    for line in lines:
        if line.startswith("#"):
            title = line.lstrip("# ").strip()
        elif line.startswith("T(1)"):
            break
        else:
            body.append(line)
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    for row in reader:
        rows.append(row)
    return title, rows


def ascii_plot(title, rows, out):
    width = 60
    peak = 60.0
    lines = [title, "=" * len(title)]
    for series in SERIES:
        lines.append(f"\n{series}:")
        for row in rows:
            v = row.get(series, "-")
            if v in ("-", "", None):
                continue
            bar = "#" * int(float(v) / peak * width)
            lines.append(f"  {row['cpus']:>3} cpus |{bar} {v}")
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def mpl_plot(title, rows, out):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    cpus = [int(r["cpus"]) for r in rows]
    for ax, prefix, label in ((axes[0], "orig", "original"), (axes[1], "opt", "optimized")):
        ax.plot([1, 60], [1, 60], "k:", label="linear")
        for clusters, marker in (("1cl", "o"), ("2cl", "s"), ("4cl", "^")):
            xs, ys = [], []
            for r in rows:
                v = r.get(f"{prefix} {clusters}", "-")
                if v not in ("-", "", None):
                    xs.append(int(r["cpus"]))
                    ys.append(float(v))
            ax.plot(xs, ys, marker=marker, label=f"{clusters[0]} cluster(s)")
        ax.set_title(label)
        ax.set_xlabel("CPUs")
        ax.set_xlim(0, 62)
        ax.set_ylim(0, 62)
        ax.legend(loc="upper left", fontsize=8)
        ax.grid(alpha=0.3)
    axes[0].set_ylabel("speedup")
    fig.suptitle(title, fontsize=10)
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    print(f"wrote {out}")


def render(text, out):
    title, rows = parse(text)
    if not rows:
        sys.exit("no CSV rows found; run the bench with --csv")
    try:
        mpl_plot(title, rows, out or "figure.png")
    except ImportError:
        # No matplotlib: fall back to an ASCII rendition (as .txt).
        if out and out.endswith(".png"):
            out = out[:-4] + ".txt"
        ascii_plot(title, rows, out)
        if out:
            print(f"wrote {out} (ASCII fallback; install matplotlib for charts)")


def main():
    args = sys.argv[1:]
    if args and args[0] == "--all":
        bench_dir = Path(args[1]) if len(args) > 1 else Path("build/bench")
        out_dir = Path(args[2]) if len(args) > 2 else Path("figures")
        out_dir.mkdir(parents=True, exist_ok=True)
        exe = bench_dir / "bench_fig"
        if not exe.exists():
            sys.exit(f"{exe} not built")
        for name in FIGS:
            text = subprocess.run([str(exe), "--app", name, "--csv"], capture_output=True,
                                  text=True, check=True).stdout
            render(text, str(out_dir / f"fig_{name}.png"))
        return
    out = args[0] if args else None
    render(sys.stdin.read(), out)


if __name__ == "__main__":
    main()
