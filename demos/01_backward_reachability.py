"""Compute every configuration that can reach (q1, 19) in the first
built-in machine, and cross-check the symbolic answer against brute force.
"""

from avasskit import (
    Budget,
    Configuration,
    compute_pre_star,
    find_path,
    machine_m1,
    pre_star_bounded,
    serialize_machine,
)

m = machine_m1()
print(serialize_machine(m))
print()

target = Configuration("q1", (19,))
result = compute_pre_star(m, target)
print(f"predecessors of {target.render()} (fixpoint after {result.sweeps} state updates):")
for state in m.states:
    print(f"  {state}: {result.sets[state].render()}")

# The same question answered by exhaustive backward search, value-capped at
# 400.  This machine can never push a counter above max(n, 19) + 13 while
# walking backward, so on values up to 360 the cap does not bite and the two
# answers must coincide exactly.
bounded = pre_star_bounded(m, target, Budget(max_value=400))
for state in m.states:
    brute = sorted(c.counter for c in bounded.configs
                   if c.state == state and c.counter <= 360)
    assert result.sets[state].values(360) == brute
print("\nbrute-force backward search agrees on every value up to 360")

# One membership fact deserves a concrete witness: 13 at q2 is a predecessor,
# and the simulator can produce the actual run.
steps, _ = find_path(m, Configuration("q2", (13,)), target, Budget(max_value=100))
chain = " -> ".join([Configuration("q2", (13,)).render()]
                    + [c.render() for _, c in steps])
print(f"\nwitness run for q2:13 reaching the target:\n  {chain}")
