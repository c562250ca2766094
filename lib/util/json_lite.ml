type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num_int i = Num (float_of_int i)

(* ---- printing ---------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

(* Integral floats print without a fractional part so counters stay
   readable; everything else uses the shortest decimal that parses
   back to the same double.  Round-tripping exactly matters: lease
   heartbeats and claim stamps carry epoch timestamps, where six
   significant digits would be off by thousands of seconds. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else shortest (p + 1)
    in
    shortest 12

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num x -> number x
  | Str s -> quote s
  | Arr items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) fields)
    ^ "}"

let obj fields = to_string (Obj fields)

(* ---- parsing ----------------------------------------------------- *)

(* Recursive-descent parser over the whole string; positions are byte
   offsets so error messages point at the offending character. *)
exception Parse_error of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error (!pos, m))) fmt in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %C, found %C" c c'
    | None -> fail "expected %C, found end of input" c
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "unrecognized token"
  in
  let escaped_char b =
    match peek () with
    | None -> fail "unterminated escape"
    | Some c ->
      advance ();
      (match c with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | 't' -> Buffer.add_char b '\t'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
         if !pos + 4 > n then fail "truncated \\u escape";
         let hex = String.sub text !pos 4 in
         (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail "bad \\u escape %S" hex
          | Some code ->
            pos := !pos + 4;
            (* Basic-multilingual-plane only; enough for log/job
               payloads, which are ASCII in practice. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_string b (Printf.sprintf "\\u%04x" code))
       | c -> fail "bad escape \\%c" c)
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        escaped_char b;
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number_body () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    match float_of_string_opt s with
    | Some x when Float.is_finite x -> Num x
    | _ -> fail "bad number %S" s
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "expected a value, found end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = string_body () in
          if List.mem_assoc key acc then fail "repeated key %S" key;
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((key, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}' in object"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' in array"
        in
        items []
      end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number_body ()
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "json: at byte %d: %s" at msg)

let parse_obj text =
  match parse text with
  | Ok (Obj fields) -> Ok fields
  | Ok _ -> Error "json: expected a top-level object"
  | Error _ as e -> e

(* ---- accessors --------------------------------------------------- *)

let find fields key = List.assoc_opt key fields

let get_str = function Str s -> Some s | _ -> None
let get_num = function Num x -> Some x | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

(* Only integers a float represents exactly: beyond 2^53 a JSON number
   no longer names one integer, and [int_of_float] would wrap. *)
let get_int = function
  | Num x when Float.is_integer x && Float.abs x <= 0x1p53 ->
    Some (int_of_float x)
  | _ -> None

let str_field fields key = Option.bind (find fields key) get_str
let num_field fields key = Option.bind (find fields key) get_num
let int_field fields key = Option.bind (find fields key) get_int
let bool_field fields key = Option.bind (find fields key) get_bool
