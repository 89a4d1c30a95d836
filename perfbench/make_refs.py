"""Write the reference results that conv_depth and mc_small items are checked
against, one file per workload under ``refs/``.

Run from the repository root at the commit whose results are the reference:

    PYTHONPATH=src python3 perfbench/make_refs.py

Each file records the workload parameters it was made for and, for every
seed in the workload's seed pool, the report the program gave.
"""

import json

import workloads as wl


def conv_depth() -> dict:
    w = wl.ConvDepth(0, refs=False)
    return {str(s): json.loads(w.run(s)) for s in range(w.seed_pool)}


def mc_small() -> dict:
    w = wl.McSmall(0, refs=False)
    items = {}
    for cell, (name, mode, *_) in enumerate(w.cells):
        for seed in range(w.seed_pool):
            r = w.run((cell, seed))
            items[wl.mc_key(name, mode, seed)] = {k: r[k] for k in wl.MC_FIELDS}
    return items


def main() -> None:
    wl.REFS.mkdir(exist_ok=True)
    for cls, make in ((wl.ConvDepth, conv_depth), (wl.McSmall, mc_small)):
        data = {"params": cls.params, "items": make()}
        path = wl.REFS / f"{cls.name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
