#!/usr/bin/env python3
"""Six-query discrimination of two promise classes with one protocol.

A pair of commuting single-qubit rotations falls in case one (one angle
is 0 and the other +-pi/2, in either order) or case two (4 cos^2(theta_a)
cos^2(theta_b) = 1). Three runs of the length-6 alternating protocol --
six oracle queries total, three per oracle -- send the transition
probability |<0|U|0>|^2 to 0 on case one and to 1 on case two, so a
single measurement decides deterministically.
"""

import argparse
import os
import sys

# mqsp from this checkout's source tree, as scripts/sweep.py imports it by default
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mqsp.families import case_one_instances, case_two_samples, discriminate  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=10, help="case-two draws")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("%-8s %-24s %-24s %-10s %s" % ("case", "theta_a", "theta_b", "decision", "prob"))
    for inst in list(case_one_instances()) + list(case_two_samples(args.samples, args.seed)):
        result = discriminate(inst)
        assert result.queries == 6
        assert result.decision == inst.case
        print(
            "%-8s %-24.17g %-24.17g %-10s %.17g"
            % (inst.case, inst.theta_a, inst.theta_b, result.decision, result.transition_prob)
        )
    print("all decisions correct with 6 queries each")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
