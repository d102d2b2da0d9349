type t = { mutable bits : Bytes.t }

let create ?(capacity = 8192) () =
  { bits = Bytes.make (max 1024 ((capacity + 7) lsr 3)) '\000' }

let ensure t id =
  let needed = (id lsr 3) + 1 in
  if needed > Bytes.length t.bits then begin
    let size = ref (Bytes.length t.bits) in
    while !size < needed do
      size := !size * 2
    done;
    let bits = Bytes.make !size '\000' in
    Bytes.blit t.bits 0 bits 0 (Bytes.length t.bits);
    t.bits <- bits
  end

let mark t id =
  ensure t id;
  let byte = id lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (id land 7))))

let marked t id =
  let byte = id lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.get t.bits byte) land (1 lsl (id land 7)) <> 0

let unmark t id =
  let byte = id lsr 3 in
  if byte < Bytes.length t.bits then
    Bytes.set t.bits byte
      (Char.chr (Char.code (Bytes.get t.bits byte) land lnot (1 lsl (id land 7))))

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let iter_marked t f =
  let visit_byte byte =
    let v = Char.code (Bytes.unsafe_get t.bits byte) in
    if v <> 0 then
      for bit = 0 to 7 do
        if v land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  in
  (* Word-wide skip, as in [Rc_table.iter_nonzero]: a mostly-clear set
     scans in O(ids / 64). *)
  let nbytes = Bytes.length t.bits in
  let words = nbytes / 8 in
  for w = 0 to words - 1 do
    if Bytes.get_int64_le t.bits (w * 8) <> 0L then
      for byte = w * 8 to (w * 8) + 7 do
        visit_byte byte
      done
  done;
  for byte = words * 8 to nbytes - 1 do
    visit_byte byte
  done
