type report = {
  k : int;
  total : int;
  covered_free : int;
  covered_any : int;
  npn_classes_total : int;
  npn_classes_covered : int;
}

let replicate k bits =
  let rec go width b =
    if width >= 64 then b
    else go (2 * width) Int64.(logor b (shift_left b width))
  in
  go (1 lsl k) (Int64.of_int bits)

let full_support k tt =
  let t = Tt.of_bits k tt in
  Tt.support_size t = k

let analyze lib k =
  if k < 1 || k > 4 then invalid_arg "Coverage.analyze";
  let total = ref 0 and free = ref 0 and any = ref 0 in
  let classes = Word_tbl.create 64 in
  (* class -> covered with a free match? *)
  for bits = 0 to (1 lsl (1 lsl k)) - 1 do
    let tt = replicate k bits in
    if full_support k tt then begin
      incr total;
      let ms = Cell_lib.matches lib k tt in
      let is_free (m : Cell_lib.match_entry) =
        if Cell_lib.free_phases lib then true
        else m.Cell_lib.phase = 0 && not m.Cell_lib.out_neg
      in
      let has_free = List.exists is_free ms in
      let has_any =
        ms <> []
        || Cell_lib.matches lib k (Int64.lognot tt) <> []
      in
      if has_free then incr free;
      if has_any then incr any;
      let c = Npn.canonical_cached k tt in
      let prev = try Word_tbl.find classes c with Not_found -> false in
      Word_tbl.replace classes c (prev || has_free)
    end
  done;
  let npn_total = Word_tbl.length classes in
  let npn_cov = Word_tbl.fold (fun _ b acc -> if b then acc + 1 else acc) classes 0 in
  {
    k;
    total = !total;
    covered_free = !free;
    covered_any = !any;
    npn_classes_total = npn_total;
    npn_classes_covered = npn_cov;
  }

let render libs ks =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "# Single-cell expressive power\n\n\
     Fraction of all Boolean functions of exactly k support variables that\n\
     one library cell realizes (free = without any inverter; any = allowing\n\
     inverted pins/output at extra cost).\n\n\
     | library | k | functions | free | any | NPN classes covered |\n\
     |---------|---|-----------|------|-----|---------------------|\n";
  List.iter
    (fun lib ->
      List.iter
        (fun k ->
          let r = analyze lib k in
          Printf.bprintf b "| %s | %d | %d | %d (%.0f%%) | %d (%.0f%%) | %d/%d |\n"
            (Cell_lib.name lib) r.k r.total r.covered_free
            (100.0 *. float_of_int r.covered_free /. float_of_int r.total)
            r.covered_any
            (100.0 *. float_of_int r.covered_any /. float_of_int r.total)
            r.npn_classes_covered r.npn_classes_total)
        ks)
    libs;
  Buffer.contents b
