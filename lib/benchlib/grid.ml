module Pool = Repro_util.Pool

let run ?obs ~jobs rows items =
  let rows = List.concat (Pool.map ?obs ~jobs rows items) in
  let results =
    Pool.map_array ?obs ~jobs
      (fun cell -> cell ())
      (Array.of_list (List.concat_map snd rows))
  in
  snd
    (List.fold_left_map
       (fun first (row, cells) ->
         let n = List.length cells in
         (first + n, (row, Array.to_list (Array.sub results first n))))
       0 rows)
