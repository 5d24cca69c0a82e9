let now_ns () = Monotonic_clock.now ()

let now_int () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = Int64.to_float ns /. 1e6

let us_of_ns ns = Int64.to_float ns /. 1e3

let span_ms ~since now = ms_of_ns (Int64.sub now since)
