(* The one binary format, so the rule "check a length against the bytes
   left before allocating" lives in one place. *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt
let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)
let add_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_array add b a =
  add_int b (Array.length a);
  Array.iter (add b) a

let add_int_array = add_array add_int
let add_float_array = add_array add_float
let add_vectors = add_array add_float_array

let encode f =
  let b = Buffer.create 256 in
  f b;
  Buffer.contents b

type reader = { s : string; mutable pos : int }

let left r = String.length r.s - r.pos

let need r k what =
  if k > left r then fail "ends inside %s (offset %d, wanted %d more bytes)" what r.pos k

let decode s f =
  let r = { s; pos = 0 } in
  let v = f r in
  if left r > 0 then fail "%d trailing bytes" (left r);
  v

let read_char r what =
  need r 1 what;
  r.pos <- r.pos + 1;
  r.s.[r.pos - 1]

let read_bool r what =
  match read_char r what with
  | '\000' -> false
  | '\001' -> true
  | c -> fail "%s is not a boolean (byte %d)" what (Char.code c)

(* The int or float at the cursor; the caller has checked its 8 bytes. *)
let int_at r what =
  let v64 = String.get_int64_le r.s r.pos in
  let v = Int64.to_int v64 in
  if not (Int64.equal (Int64.of_int v) v64) then fail "%s does not fit a native int (%Ld)" what v64;
  r.pos <- r.pos + 8;
  v

let float_at r =
  r.pos <- r.pos + 8;
  Int64.float_of_bits (String.get_int64_le r.s (r.pos - 8))

let read_int r what =
  need r 8 what;
  int_at r what

let read_float r what =
  need r 8 what;
  float_at r

(* A count of elements of at least [width] bytes each. The one check caps
   a hostile count before allocation and covers every element after it. *)
let count r what ~width =
  let n = read_int r what in
  if n < 0 || n > left r / width then
    fail "bad length %d for %s (the bytes left allow at most %d)" n what (left r / width);
  n

let read_string r what =
  let n = count r what ~width:1 in
  r.pos <- r.pos + n;
  String.sub r.s (r.pos - n) n

(* Typed loops: a polymorphic [Array.init] would pay a write barrier per
   element. *)
let read_int_array r what =
  let a = Array.make (count r what ~width:8) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- int_at r what
  done;
  a

let read_float_array r what =
  let a = Array.create_float (count r what ~width:8) in
  for i = 0 to Array.length a - 1 do
    a.(i) <- float_at r
  done;
  a

(* Every element of an array this format writes holds at least one 8-byte
   field, which also keeps the array itself no larger than the input. *)
let read_array r what read =
  Array.init (count r what ~width:8) (fun i ->
      try read r with Malformed msg -> fail "%s %d: %s" what i msg)

let read_vectors r what = read_array r what (fun r -> read_float_array r what)

let sealed_header_bytes = 8 + 16

let add_sealed b body =
  add_int b (String.length body);
  Buffer.add_string b (Digest.string body);
  Buffer.add_string b body

type sealed = Sealed of string | Torn of string | Bad_digest

let input_sealed ic =
  let present = in_channel_length ic - pos_in ic - sealed_header_bytes in
  if present < 0 then Torn "the file ends inside a record header"
  else begin
    let header = { s = really_input_string ic sealed_header_bytes; pos = 0 } in
    let len = int_at header "record length" in
    if len < 0 then fail "negative record length %d" len;
    if len > present then Torn (Printf.sprintf "record declares %d bytes, %d present" len present)
    else
      let body = really_input_string ic len in
      if String.equal (Digest.string body) (String.sub header.s 8 16) then Sealed body else Bad_digest
  end
