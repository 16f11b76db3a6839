(** Zone-based assignment — the related-work baseline.

    Prior work on interactivity-aware client assignment (the paper's
    [22], [23], [25]) optimises only the {e client-to-server} latency:
    cluster nearby clients into zones, then connect each zone to a
    low-latency server. Section VI argues this is insufficient because it
    ignores inter-server latency and synchronisation delay — the very
    terms the paper's objective charges for.

    This module implements that two-phase strategy faithfully so the
    claim can be measured:

    + {b zoning} — farthest-point clustering of the clients into at most
      [zones] groups by pairwise latency (each client joins its nearest
      zone seed);
    + {b zone assignment} — each zone connects to the server minimising
      the zone's maximum client-to-server latency; different zones may
      share a server, and inter-server distances are deliberately never
      consulted.

    Respects capacities by splitting an overflowing zone across its
    best servers (nearest clients first). *)

val assign : ?zones:int -> Dia_core.Problem.t -> Dia_core.Assignment.t
(** [zones] defaults to the number of servers. O(zones · |C| · |S|).

    @raise Invalid_argument if [zones < 1]. *)
