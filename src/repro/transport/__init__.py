"""Transport substrate: network links/routes, sneakernet, integrity, planner."""
