open Gate_spec

type entry = { index : int; name : string; spec : Gate_spec.expr }

(* Variable conventions of Table 1: A=0, B=1, C=2, D=3, E=4, F=5. *)
let a = 0
and b = 1
and c = 2
and d = 3
and e = 4
and f = 5

let specs =
  [|
    (* F00 *) lit a;
    (* F01 *) a ^: b;
    (* F02 *) Or [ lit a; lit b ];
    (* F03 *) And [ lit a; lit b ];
    (* F04 *) Or [ a ^: b; lit c ];
    (* F05 *) And [ a ^: b; lit c ];
    (* F06 *) Or [ a ^: b; a ^: c ];
    (* F07 *) And [ a ^: b; a ^: c ];
    (* F08 *) Or [ a ^: b; c ^: d ];
    (* F09 *) And [ a ^: b; c ^: d ];
    (* F10 *) Or [ lit a; lit b; lit c ];
    (* F11 *) And [ Or [ lit a; lit b ]; lit c ];
    (* F12 *) Or [ lit a; And [ lit b; lit c ] ];
    (* F13 *) And [ lit a; lit b; lit c ];
    (* F14 *) Or [ a ^: d; lit b; lit c ];
    (* F15 *) Or [ a ^: d; b ^: d; lit c ];
    (* F16 *) Or [ a ^: d; b ^: d; c ^: d ];
    (* F17 *) And [ Or [ a ^: d; lit b ]; lit c ];
    (* F18 *) And [ Or [ a ^: d; b ^: d ]; lit c ];
    (* F19 *) And [ Or [ a ^: d; lit b ]; c ^: d ];
    (* F20 *) And [ Or [ a ^: d; b ^: d ]; c ^: d ];
    (* F21 *) And [ Or [ lit a; lit b ]; c ^: d ];
    (* F22 *) Or [ a ^: d; And [ lit b; lit c ] ];
    (* F23 *) Or [ lit a; And [ b ^: d; lit c ] ];
    (* F24 *) Or [ a ^: d; And [ b ^: d; lit c ] ];
    (* F25 *) Or [ lit a; And [ b ^: d; c ^: d ] ];
    (* F26 *) Or [ a ^: d; And [ b ^: d; c ^: d ] ];
    (* F27 *) And [ a ^: d; lit b; lit c ];
    (* F28 *) And [ a ^: d; b ^: d; lit c ];
    (* F29 *) And [ a ^: d; b ^: d; c ^: d ];
    (* F30 *) Or [ a ^: d; b ^: e; lit c ];
    (* F31 *) Or [ a ^: d; b ^: d; c ^: e ];
    (* F32 *) And [ Or [ a ^: d; b ^: e ]; lit c ];
    (* F33 *) And [ Or [ a ^: d; lit b ]; c ^: e ];
    (* F34 *) And [ Or [ a ^: d; b ^: d ]; c ^: e ];
    (* F35 *) And [ Or [ a ^: d; b ^: e ]; c ^: d ];
    (* F36 *) Or [ a ^: d; And [ b ^: e; lit c ] ];
    (* F37 *) Or [ lit a; And [ b ^: d; c ^: e ] ];
    (* F38 *) Or [ a ^: d; And [ b ^: e; c ^: e ] ];
    (* F39 *) Or [ a ^: d; And [ b ^: e; c ^: d ] ];
    (* F40 *) And [ a ^: d; b ^: e; lit c ];
    (* F41 *) And [ a ^: d; b ^: d; c ^: e ];
    (* F42 *) Or [ a ^: d; b ^: e; c ^: f ];
    (* F43 *) And [ Or [ a ^: d; b ^: e ]; c ^: f ];
    (* F44 *) Or [ a ^: d; And [ b ^: e; c ^: f ] ];
    (* F45 *) And [ a ^: d; b ^: e; c ^: f ];
  |]

let all =
  Array.to_list
    (Array.mapi
       (fun i spec -> { index = i; name = Printf.sprintf "F%02d" i; spec })
       specs)

let find name = List.find (fun e -> e.name = name) all

let is_cmos_expressible e = Gate_spec.num_xors e.spec = 0
let cmos_subset = List.filter is_cmos_expressible all

(* ---- reverse lookup: which catalog function is this truth table? ----

   Used by the fault analyzer to name the function a defective cell has
   morphed into.  Three confidence levels, tried in order: the exact table
   (same variable roles), its complement, then the NPN class (note that NPN
   merges some catalog entries, e.g. F02/F03 are one class; the class hit
   reports the lowest-index member). *)

type function_match = Exact of entry | Complement of entry | Npn_class of entry

let match_entry = function
  | Exact e | Complement e | Npn_class e -> e

let lookup_tables =
  lazy
    (let exact = Word_tbl.create 97 in
     let compl_ = Word_tbl.create 97 in
     (* the NPN table is keyed by (support size, class): one per size *)
     let npn = Array.init 7 (fun _ -> Word_tbl.create 97) in
     List.iter
       (fun e ->
         let tt = Gate_spec.tt6 e.spec in
         if not (Word_tbl.mem exact tt) then Word_tbl.add exact tt e;
         if not (Word_tbl.mem compl_ (Int64.lognot tt)) then
           Word_tbl.add compl_ (Int64.lognot tt) e;
         let small, sup = Npn.shrink tt 6 in
         let k = Array.length sup in
         let key = Npn.canonical_cached k small in
         if not (Word_tbl.mem npn.(k) key) then Word_tbl.add npn.(k) key e)
       all;
     (exact, compl_, npn))

let find_by_function tt =
  let exact, compl_, npn = Lazy.force lookup_tables in
  match Word_tbl.find_opt exact tt with
  | Some e -> Some (Exact e)
  | None -> (
      match Word_tbl.find_opt compl_ tt with
      | Some e -> Some (Complement e)
      | None ->
          let small, sup = Npn.shrink tt 6 in
          let k = Array.length sup in
          if k = 0 then None
          else
            Option.map
              (fun e -> Npn_class e)
              (Word_tbl.find_opt npn.(k) (Npn.canonical_cached k small)))
