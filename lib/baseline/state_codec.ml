module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution

(* Greedy, random search and hill climbing all have the same
   checkpoint shape: the working solution plus one float of auxiliary
   search memory kept in a ref by the engine closure (the sweep/climb
   incumbent).  The codec serializes both and, on decode, writes the
   float back into the closure's ref. *)
let solution_plus ~engine ~version ~tag aux app platform =
  {
    Engine.engine;
    version;
    encode =
      (fun s -> Printf.sprintf "%s %h\n%s" tag !aux (Solution.encode s));
    decode =
      (fun text ->
        let ( let* ) = Result.bind in
        let* values, lines =
          Repro_util.Checkpoint.field tag float_of_string_opt
            (String.split_on_char '\n' text)
        in
        let* x =
          match values with
          | [ x ] -> Ok x
          | _ -> Error (Printf.sprintf "bad %s line" tag)
        in
        let* s = Solution.decode app platform (String.concat "\n" lines) in
        aux := x;
        Ok s);
  }
