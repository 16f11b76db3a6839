(** Synthetic latency data sets.

    The paper evaluates on the Meridian (1796 usable nodes) and MIT King
    (1024 nodes) pairwise RTT matrices. Those files are not redistributable
    here, so this module generates Internet-like matrices with the two
    properties the paper's results depend on:

    - clustered, heavy-tailed latencies (continent/city hierarchy plus
      last-mile access delays), and
    - triangle-inequality violations, as produced by King measurements
      (paper, Section V footnote 2) — without them Nearest-Server
      Assignment could never exceed its approximation ratio of 3.

    All generators are deterministic functions of their [seed].
    {!Loader} can parse the genuine data files if they are available. *)

type params = {
  continents : int;  (** top-level clusters *)
  cities_per_continent : int;  (** second-level clusters *)
  city_sigma : float;  (** node scatter around a city centre (map units) *)
  ms_per_unit : float;  (** propagation delay per map unit *)
  access_mean : float;
      (** mean of the exponential per-node access (last-mile) delay, added
          to both endpoints of every path *)
  noise_sigma : float;  (** sigma of multiplicative lognormal noise *)
  detour_fraction : float;  (** fraction of pairs routed via a detour *)
  detour_max : float;  (** maximum detour inflation factor, [>= 1] *)
  min_latency : float;  (** floor on any pairwise latency *)
}

val default_params : params
(** Parameters tuned so that the resulting matrices have a median RTT of
    roughly 80–120 ms, a long tail past 400 ms, and a triangle-violation
    fraction in the 5–15% range typical of King data. *)

val internet_like : ?params:params -> ?rows:int array -> seed:int -> int -> Matrix.t
(** [internet_like ~seed n] generates an [n]-node Internet-like matrix.

    With [~rows], only the pairs that touch a listed node are computed,
    into the listed rows alone ([|distinct rows| * n] doubles and the
    store's tail); every other pair is absent (see {!Matrix}, "Absent
    pairs"). Each
    present entry is bit-identical to the same entry of the full build:
    the random stream still advances for every pair, and only the
    arithmetic is skipped. Duplicates in [rows] are allowed; the default
    is every node.

    @raise Invalid_argument if [n < 0], a cluster count is not positive,
    a row is out of bounds, or [params] yield a negative or non-finite
    latency. *)

val meridian_like : ?seed:int -> unit -> Matrix.t
(** The stand-in for the Meridian data set: 1796 nodes, default seed 42. *)

val mit_like : ?seed:int -> unit -> Matrix.t
(** The stand-in for the MIT King data set: 1024 nodes, default seed 7. *)

val euclidean : seed:int -> n:int -> side:float -> Matrix.t
(** Uniform random points in a [side x side] square with Euclidean
    distances — a true metric, handy for testing approximation-ratio
    claims that assume the triangle inequality. *)

val grid : rows:int -> cols:int -> spacing:float -> Matrix.t
(** Shortest-path distances on a [rows x cols] grid graph with uniform
    edge length [spacing]. A metric with many ties. *)

val uniform_random : seed:int -> n:int -> lo:float -> hi:float -> Matrix.t
(** Entries drawn i.i.d. uniform in [[lo, hi]] — aggressively non-metric;
    a stress test for the algorithms.

    @raise Invalid_argument unless [0 < lo <= hi]. *)
