(** Empirical cumulative distribution functions.

    Fig. 8 of the paper plots, for each algorithm, the cumulative number
    of simulation runs whose normalized interactivity falls below each
    value. This module builds that curve from samples. *)

type t
(** An empirical CDF. *)

val of_samples : float array -> t
(** Build from raw samples (copied and sorted).

    @raise Invalid_argument on empty or NaN input. *)

val count : t -> int

val eval : t -> float -> float
(** [eval cdf x] = fraction of samples [<= x], in [[0, 1]]. *)

val count_below : t -> float -> int
(** Number of samples [<= x] — the paper's Fig. 8 y-axis. *)

val quantile : t -> float -> float
(** Inverse CDF by linear interpolation, [0 <= q <= 1].

    @raise Invalid_argument outside [0, 1]. *)

val curve : t -> points:int -> (float * float) list
(** [(x, eval x)] sampled at [points] evenly spaced x-values spanning the
    sample range (endpoints included).

    @raise Invalid_argument if [points < 2]. *)

val max_sample : t -> float
