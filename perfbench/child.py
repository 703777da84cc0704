"""Entry point of one benchmark process; run.py starts it.

    python3 perfbench/child.py --workload solve --seed 1 --seconds 5 \\
        --role main --part 0 --tables DIR --out DIR [--reference] [--trace]

Sampling the host's speed starts before anything else is imported, so the
whole set-up time, imports included, can be rescaled like the operations
(see hostspeed.py and workloads.py).
"""

if __name__ == "__main__":
    import sys

    import hostspeed

    host = hostspeed.HostSpeed()
    host.start()
    import workloads

    sys.exit(workloads.main(host))
