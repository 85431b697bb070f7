"""An 8192-node scale point, plus EDM at its 512-node ceiling.

Two halves, both riding :func:`scale_1024.run_point` as the driver:

1. The queueing-substrate fabrics (IRD, DCTCP) at 8192 nodes — node
   count is unbounded for them, so this is the raw "how far does the
   event kernel take us" demo.
2. EDM at 512 nodes: EDM's wire format carries 9-bit node ids
   (§3.1.4), so its cluster tops out there and its scale axis is event
   density at high load.

Run::

    PYTHONPATH=src python examples/scale_8192.py [--nodes 8192]
    [--messages 20000]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from scale_1024 import build_arg_parser, run_point  # noqa: E402

from repro.workloads.synthetic import microbenchmark  # noqa: E402

#: EDM wire-format ceiling: 9-bit node ids (§3.1.4).
EDM_MAX_NODES = 512


def main() -> None:
    parser = build_arg_parser(nodes=8192, fabrics="IRD,DCTCP")
    args = parser.parse_args()

    print(f"generating {args.messages} messages across {args.nodes} nodes ...")
    messages = microbenchmark(
        num_nodes=args.nodes,
        link_gbps=100.0,
        load=args.load,
        message_count=args.messages,
        seed=args.seed,
    )
    for name in args.fabrics.split(","):
        run_point(name, messages, nodes=args.nodes, seed=args.seed)

    print(f"\nEDM at its wire-format ceiling ({EDM_MAX_NODES} nodes) ...")
    edm_messages = microbenchmark(
        num_nodes=EDM_MAX_NODES,
        link_gbps=100.0,
        load=0.9,
        message_count=args.messages,
        seed=args.seed,
    )
    run_point("EDM", edm_messages, nodes=EDM_MAX_NODES, seed=args.seed)


if __name__ == "__main__":
    main()
