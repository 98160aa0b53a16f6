"""Transport substrate: network links, sneakernet, integrity, planner."""
