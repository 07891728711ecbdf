-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'square_root'
-- data path: 60 nodes (36 soft, 24 hard), 12 pipeline stages
-- netlist: 366 cells, 898 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node1 is
  port (
    X0 : in unsigned(23 downto 0);
    t9_out : out unsigned(1 downto 0);
    t12_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node1;

architecture rtl of square_root_dp_node1 is
  signal t4 : unsigned(1 downto 0);
  signal t6 : unsigned(1 downto 0);
  signal t9 : unsigned(1 downto 0);
  signal t12 : unsigned(0 downto 0);
begin
  t4 <= X0(23 downto 22);
  t6 <= t4 and to_unsigned(3, 2);
  t9 <= t6;
  t12 <= "1" when signed(resize(t9, 3)) >= to_signed(1, 3) else "0";
  t9_out <= t9;
  t12_out <= t12;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node2 is
  port (
    t9 : in unsigned(1 downto 0);
    t14_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_node2;

architecture rtl of square_root_dp_node2 is
  signal t13 : signed(2 downto 0);
  signal t14 : unsigned(25 downto 0);
begin
  t13 <= signed(resize(t9, 3)) - to_signed(1, 3);
  t14 <= unsigned(resize(t13, 26));
  t14_out <= t14;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb3 is
  port (
    n55_pipe : in unsigned(1 downto 0);
    t14 : in unsigned(25 downto 0);
    n59_pipe : in unsigned(0 downto 0);
    rem_3_out : out unsigned(25 downto 0);
    root_3_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_mux_bb3;

architecture rtl of square_root_dp_mux_bb3 is
  signal rem_3 : unsigned(25 downto 0);
  signal root_3 : unsigned(0 downto 0);
begin
  rem_3 <= t14 when n59_pipe /= 0 else resize(n55_pipe, 26);
  root_3 <= to_unsigned(1, 1) when n59_pipe /= 0 else to_unsigned(0, 1);
  rem_3_out <= rem_3;
  root_3_out <= root_3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node4 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_3 : in unsigned(25 downto 0);
    root_3 : in unsigned(0 downto 0);
    t24_out : out unsigned(25 downto 0);
    t24_s1_out : out unsigned(25 downto 0);
    t27_s1_out : out unsigned(2 downto 0);
    t28_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node4;

architecture rtl of square_root_dp_node4 is
  signal t19 : unsigned(3 downto 0);
  signal t20 : unsigned(1 downto 0);
  signal t22 : unsigned(27 downto 0);
  signal t23 : unsigned(27 downto 0);
  signal t24 : unsigned(25 downto 0);
  signal t25 : unsigned(2 downto 0);
  signal t26 : unsigned(2 downto 0);
  signal t24_s1 : unsigned(25 downto 0) := (others => '0');
  signal t27_s1 : unsigned(2 downto 0) := (others => '0');
  signal t28 : unsigned(0 downto 0);
begin
  t19 <= X0_pipe(23 downto 20);
  t20 <= t19(1 downto 0) and to_unsigned(3, 2);
  t22 <= shift_left(resize(rem_3, 28), 2);
  t23 <= t22 or resize(t20, 28);
  t24 <= t23(25 downto 0);
  t25 <= shift_left(resize(root_3, 3), 2);
  t26 <= t25 or to_unsigned(1, 3);
  t28 <= "1" when signed(resize(t24_s1, 27)) >= signed(resize(t27_s1, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t24_s1 <= t24;
        t27_s1 <= t26;
      end if;
    end if;
  end process;
  t24_out <= t24;
  t24_s1_out <= t24_s1;
  t27_s1_out <= t27_s1;
  t28_out <= t28;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node5 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_3 : in unsigned(0 downto 0);
    t30_s1_out : out unsigned(1 downto 0)
  );
end entity square_root_dp_node5;

architecture rtl of square_root_dp_node5 is
  signal t29 : unsigned(1 downto 0);
  signal t30_s1 : unsigned(1 downto 0) := (others => '0');
begin
  t29 <= shift_left(resize(root_3, 2), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t30_s1 <= t29;
      end if;
    end if;
  end process;
  t30_s1_out <= t30_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node6 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_3 : in unsigned(0 downto 0);
    t24_s1 : in unsigned(25 downto 0);
    t27_s1 : in unsigned(2 downto 0);
    t32_out : out unsigned(25 downto 0);
    t35_s1_out : out unsigned(1 downto 0)
  );
end entity square_root_dp_node6;

architecture rtl of square_root_dp_node6 is
  signal t33 : unsigned(1 downto 0);
  signal t34 : unsigned(1 downto 0);
  signal t31 : signed(26 downto 0);
  signal t32 : unsigned(25 downto 0);
  signal t35_s1 : unsigned(1 downto 0) := (others => '0');
begin
  t33 <= shift_left(resize(root_3, 2), 1);
  t34 <= t33 or to_unsigned(1, 2);
  t31 <= signed(resize(t24_s1, 27)) - signed(resize(t27_s1, 27));
  t32 <= unsigned(t31(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t35_s1 <= t34;
      end if;
    end if;
  end process;
  t32_out <= t32;
  t35_s1_out <= t35_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb6 is
  port (
    t32 : in unsigned(25 downto 0);
    n80_pipe : in unsigned(0 downto 0);
    pipe_s1 : in unsigned(25 downto 0);
    t35_s1 : in unsigned(1 downto 0);
    t30_s1 : in unsigned(1 downto 0);
    rem_6_out : out unsigned(25 downto 0);
    root_6_out : out unsigned(1 downto 0)
  );
end entity square_root_dp_mux_bb6;

architecture rtl of square_root_dp_mux_bb6 is
  signal rem_6 : unsigned(25 downto 0);
  signal root_6 : unsigned(1 downto 0);
begin
  rem_6 <= t32 when n80_pipe /= 0 else pipe_s1;
  root_6 <= t35_s1 when n80_pipe /= 0 else t30_s1;
  rem_6_out <= rem_6;
  root_6_out <= root_6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node8 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_6 : in unsigned(25 downto 0);
    root_6 : in unsigned(1 downto 0);
    t45_out : out unsigned(25 downto 0);
    t45_s2_out : out unsigned(25 downto 0);
    t48_s2_out : out unsigned(3 downto 0);
    t49_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node8;

architecture rtl of square_root_dp_node8 is
  signal t40 : unsigned(5 downto 0);
  signal t41 : unsigned(1 downto 0);
  signal t43 : unsigned(27 downto 0);
  signal t42_s1 : unsigned(1 downto 0) := (others => '0');
  signal t44 : unsigned(27 downto 0);
  signal t45 : unsigned(25 downto 0);
  signal t46 : unsigned(3 downto 0);
  signal t47 : unsigned(3 downto 0);
  signal t45_s2 : unsigned(25 downto 0) := (others => '0');
  signal t48_s2 : unsigned(3 downto 0) := (others => '0');
  signal t49 : unsigned(0 downto 0);
begin
  t40 <= X0_pipe(23 downto 18);
  t41 <= t40(1 downto 0) and to_unsigned(3, 2);
  t43 <= shift_left(resize(rem_6, 28), 2);
  t44 <= t43 or resize(t42_s1, 28);
  t45 <= t44(25 downto 0);
  t46 <= shift_left(resize(root_6, 4), 2);
  t47 <= t46 or to_unsigned(1, 4);
  t49 <= "1" when signed(resize(t45_s2, 27)) >= signed(resize(t48_s2, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t42_s1 <= t41;
        t45_s2 <= t45;
        t48_s2 <= t47;
      end if;
    end if;
  end process;
  t45_out <= t45;
  t45_s2_out <= t45_s2;
  t48_s2_out <= t48_s2;
  t49_out <= t49;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node9 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_6 : in unsigned(1 downto 0);
    t51_s2_out : out unsigned(2 downto 0)
  );
end entity square_root_dp_node9;

architecture rtl of square_root_dp_node9 is
  signal t50 : unsigned(2 downto 0);
  signal t51_s2 : unsigned(2 downto 0) := (others => '0');
begin
  t50 <= shift_left(resize(root_6, 3), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t51_s2 <= t50;
      end if;
    end if;
  end process;
  t51_s2_out <= t51_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node10 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_6 : in unsigned(1 downto 0);
    t45_s2 : in unsigned(25 downto 0);
    t48_s2 : in unsigned(3 downto 0);
    t53_out : out unsigned(25 downto 0);
    t56_s2_out : out unsigned(2 downto 0)
  );
end entity square_root_dp_node10;

architecture rtl of square_root_dp_node10 is
  signal t54 : unsigned(2 downto 0);
  signal t55 : unsigned(2 downto 0);
  signal t52 : signed(26 downto 0);
  signal t53 : unsigned(25 downto 0);
  signal t56_s2 : unsigned(2 downto 0) := (others => '0');
begin
  t54 <= shift_left(resize(root_6, 3), 1);
  t55 <= t54 or to_unsigned(1, 3);
  t52 <= signed(resize(t45_s2, 27)) - signed(resize(t48_s2, 27));
  t53 <= unsigned(t52(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t56_s2 <= t55;
      end if;
    end if;
  end process;
  t53_out <= t53;
  t56_s2_out <= t56_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb9 is
  port (
    t53 : in unsigned(25 downto 0);
    n104_pipe : in unsigned(0 downto 0);
    pipe_s2 : in unsigned(25 downto 0);
    t56_s2 : in unsigned(2 downto 0);
    t51_s2 : in unsigned(2 downto 0);
    rem_9_out : out unsigned(25 downto 0);
    root_9_out : out unsigned(2 downto 0)
  );
end entity square_root_dp_mux_bb9;

architecture rtl of square_root_dp_mux_bb9 is
  signal rem_9 : unsigned(25 downto 0);
  signal root_9 : unsigned(2 downto 0);
begin
  rem_9 <= t53 when n104_pipe /= 0 else pipe_s2;
  root_9 <= t56_s2 when n104_pipe /= 0 else t51_s2;
  rem_9_out <= rem_9;
  root_9_out <= root_9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node12 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_9 : in unsigned(25 downto 0);
    root_9 : in unsigned(2 downto 0);
    t66_out : out unsigned(25 downto 0);
    t66_s3_out : out unsigned(25 downto 0);
    t69_s3_out : out unsigned(4 downto 0);
    t70_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node12;

architecture rtl of square_root_dp_node12 is
  signal t61 : unsigned(7 downto 0);
  signal t62 : unsigned(1 downto 0);
  signal t64 : unsigned(27 downto 0);
  signal t63_s1 : unsigned(1 downto 0) := (others => '0');
  signal t63_s2 : unsigned(1 downto 0) := (others => '0');
  signal t65 : unsigned(27 downto 0);
  signal t66 : unsigned(25 downto 0);
  signal t67 : unsigned(4 downto 0);
  signal t68 : unsigned(4 downto 0);
  signal t66_s3 : unsigned(25 downto 0) := (others => '0');
  signal t69_s3 : unsigned(4 downto 0) := (others => '0');
  signal t70 : unsigned(0 downto 0);
begin
  t61 <= X0_pipe(23 downto 16);
  t62 <= t61(1 downto 0) and to_unsigned(3, 2);
  t64 <= shift_left(resize(rem_9, 28), 2);
  t65 <= t64 or resize(t63_s2, 28);
  t66 <= t65(25 downto 0);
  t67 <= shift_left(resize(root_9, 5), 2);
  t68 <= t67 or to_unsigned(1, 5);
  t70 <= "1" when signed(resize(t66_s3, 27)) >= signed(resize(t69_s3, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t63_s1 <= t62;
        t63_s2 <= t63_s1;
        t66_s3 <= t66;
        t69_s3 <= t68;
      end if;
    end if;
  end process;
  t66_out <= t66;
  t66_s3_out <= t66_s3;
  t69_s3_out <= t69_s3;
  t70_out <= t70;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node13 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_9 : in unsigned(2 downto 0);
    t72_s3_out : out unsigned(3 downto 0)
  );
end entity square_root_dp_node13;

architecture rtl of square_root_dp_node13 is
  signal t71 : unsigned(3 downto 0);
  signal t72_s3 : unsigned(3 downto 0) := (others => '0');
begin
  t71 <= shift_left(resize(root_9, 4), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t72_s3 <= t71;
      end if;
    end if;
  end process;
  t72_s3_out <= t72_s3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node14 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_9 : in unsigned(2 downto 0);
    t66_s3 : in unsigned(25 downto 0);
    t69_s3 : in unsigned(4 downto 0);
    t74_out : out unsigned(25 downto 0);
    t77_s3_out : out unsigned(3 downto 0)
  );
end entity square_root_dp_node14;

architecture rtl of square_root_dp_node14 is
  signal t75 : unsigned(3 downto 0);
  signal t76 : unsigned(3 downto 0);
  signal t73 : signed(26 downto 0);
  signal t74 : unsigned(25 downto 0);
  signal t77_s3 : unsigned(3 downto 0) := (others => '0');
begin
  t75 <= shift_left(resize(root_9, 4), 1);
  t76 <= t75 or to_unsigned(1, 4);
  t73 <= signed(resize(t66_s3, 27)) - signed(resize(t69_s3, 27));
  t74 <= unsigned(t73(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t77_s3 <= t76;
      end if;
    end if;
  end process;
  t74_out <= t74;
  t77_s3_out <= t77_s3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb12 is
  port (
    t74 : in unsigned(25 downto 0);
    n129_pipe : in unsigned(0 downto 0);
    pipe_s3 : in unsigned(25 downto 0);
    t77_s3 : in unsigned(3 downto 0);
    t72_s3 : in unsigned(3 downto 0);
    rem_12_out : out unsigned(25 downto 0);
    root_12_out : out unsigned(3 downto 0)
  );
end entity square_root_dp_mux_bb12;

architecture rtl of square_root_dp_mux_bb12 is
  signal rem_12 : unsigned(25 downto 0);
  signal root_12 : unsigned(3 downto 0);
begin
  rem_12 <= t74 when n129_pipe /= 0 else pipe_s3;
  root_12 <= t77_s3 when n129_pipe /= 0 else t72_s3;
  rem_12_out <= rem_12;
  root_12_out <= root_12;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node16 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_12 : in unsigned(25 downto 0);
    root_12 : in unsigned(3 downto 0);
    t87_out : out unsigned(25 downto 0);
    t87_s4_out : out unsigned(25 downto 0);
    t90_s4_out : out unsigned(5 downto 0);
    t91_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node16;

architecture rtl of square_root_dp_node16 is
  signal t82 : unsigned(9 downto 0);
  signal t83 : unsigned(1 downto 0);
  signal t85 : unsigned(27 downto 0);
  signal t84_s1 : unsigned(1 downto 0) := (others => '0');
  signal t84_s2 : unsigned(1 downto 0) := (others => '0');
  signal t84_s3 : unsigned(1 downto 0) := (others => '0');
  signal t86 : unsigned(27 downto 0);
  signal t87 : unsigned(25 downto 0);
  signal t88 : unsigned(5 downto 0);
  signal t89 : unsigned(5 downto 0);
  signal t87_s4 : unsigned(25 downto 0) := (others => '0');
  signal t90_s4 : unsigned(5 downto 0) := (others => '0');
  signal t91 : unsigned(0 downto 0);
begin
  t82 <= X0_pipe(23 downto 14);
  t83 <= t82(1 downto 0) and to_unsigned(3, 2);
  t85 <= shift_left(resize(rem_12, 28), 2);
  t86 <= t85 or resize(t84_s3, 28);
  t87 <= t86(25 downto 0);
  t88 <= shift_left(resize(root_12, 6), 2);
  t89 <= t88 or to_unsigned(1, 6);
  t91 <= "1" when signed(resize(t87_s4, 27)) >= signed(resize(t90_s4, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t84_s1 <= t83;
        t84_s2 <= t84_s1;
        t84_s3 <= t84_s2;
        t87_s4 <= t87;
        t90_s4 <= t89;
      end if;
    end if;
  end process;
  t87_out <= t87;
  t87_s4_out <= t87_s4;
  t90_s4_out <= t90_s4;
  t91_out <= t91;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node17 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_12 : in unsigned(3 downto 0);
    t93_s4_out : out unsigned(4 downto 0)
  );
end entity square_root_dp_node17;

architecture rtl of square_root_dp_node17 is
  signal t92 : unsigned(4 downto 0);
  signal t93_s4 : unsigned(4 downto 0) := (others => '0');
begin
  t92 <= shift_left(resize(root_12, 5), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t93_s4 <= t92;
      end if;
    end if;
  end process;
  t93_s4_out <= t93_s4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node18 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_12 : in unsigned(3 downto 0);
    t87_s4 : in unsigned(25 downto 0);
    t90_s4 : in unsigned(5 downto 0);
    t95_out : out unsigned(25 downto 0);
    t98_s4_out : out unsigned(4 downto 0)
  );
end entity square_root_dp_node18;

architecture rtl of square_root_dp_node18 is
  signal t96 : unsigned(4 downto 0);
  signal t97 : unsigned(4 downto 0);
  signal t94 : signed(26 downto 0);
  signal t95 : unsigned(25 downto 0);
  signal t98_s4 : unsigned(4 downto 0) := (others => '0');
begin
  t96 <= shift_left(resize(root_12, 5), 1);
  t97 <= t96 or to_unsigned(1, 5);
  t94 <= signed(resize(t87_s4, 27)) - signed(resize(t90_s4, 27));
  t95 <= unsigned(t94(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t98_s4 <= t97;
      end if;
    end if;
  end process;
  t95_out <= t95;
  t98_s4_out <= t98_s4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb15 is
  port (
    t95 : in unsigned(25 downto 0);
    n155_pipe : in unsigned(0 downto 0);
    pipe_s4 : in unsigned(25 downto 0);
    t98_s4 : in unsigned(4 downto 0);
    t93_s4 : in unsigned(4 downto 0);
    rem_15_out : out unsigned(25 downto 0);
    root_15_out : out unsigned(4 downto 0)
  );
end entity square_root_dp_mux_bb15;

architecture rtl of square_root_dp_mux_bb15 is
  signal rem_15 : unsigned(25 downto 0);
  signal root_15 : unsigned(4 downto 0);
begin
  rem_15 <= t95 when n155_pipe /= 0 else pipe_s4;
  root_15 <= t98_s4 when n155_pipe /= 0 else t93_s4;
  rem_15_out <= rem_15;
  root_15_out <= root_15;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node20 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_15 : in unsigned(25 downto 0);
    root_15 : in unsigned(4 downto 0);
    t108_out : out unsigned(25 downto 0);
    t108_s5_out : out unsigned(25 downto 0);
    t111_s5_out : out unsigned(6 downto 0);
    t112_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node20;

architecture rtl of square_root_dp_node20 is
  signal t103 : unsigned(11 downto 0);
  signal t104 : unsigned(1 downto 0);
  signal t106 : unsigned(27 downto 0);
  signal t105_s1 : unsigned(1 downto 0) := (others => '0');
  signal t105_s2 : unsigned(1 downto 0) := (others => '0');
  signal t105_s3 : unsigned(1 downto 0) := (others => '0');
  signal t105_s4 : unsigned(1 downto 0) := (others => '0');
  signal t107 : unsigned(27 downto 0);
  signal t108 : unsigned(25 downto 0);
  signal t109 : unsigned(6 downto 0);
  signal t110 : unsigned(6 downto 0);
  signal t108_s5 : unsigned(25 downto 0) := (others => '0');
  signal t111_s5 : unsigned(6 downto 0) := (others => '0');
  signal t112 : unsigned(0 downto 0);
begin
  t103 <= X0_pipe(23 downto 12);
  t104 <= t103(1 downto 0) and to_unsigned(3, 2);
  t106 <= shift_left(resize(rem_15, 28), 2);
  t107 <= t106 or resize(t105_s4, 28);
  t108 <= t107(25 downto 0);
  t109 <= shift_left(resize(root_15, 7), 2);
  t110 <= t109 or to_unsigned(1, 7);
  t112 <= "1" when signed(resize(t108_s5, 27)) >= signed(resize(t111_s5, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t105_s1 <= t104;
        t105_s2 <= t105_s1;
        t105_s3 <= t105_s2;
        t105_s4 <= t105_s3;
        t108_s5 <= t108;
        t111_s5 <= t110;
      end if;
    end if;
  end process;
  t108_out <= t108;
  t108_s5_out <= t108_s5;
  t111_s5_out <= t111_s5;
  t112_out <= t112;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node21 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_15 : in unsigned(4 downto 0);
    t114_s5_out : out unsigned(5 downto 0)
  );
end entity square_root_dp_node21;

architecture rtl of square_root_dp_node21 is
  signal t113 : unsigned(5 downto 0);
  signal t114_s5 : unsigned(5 downto 0) := (others => '0');
begin
  t113 <= shift_left(resize(root_15, 6), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t114_s5 <= t113;
      end if;
    end if;
  end process;
  t114_s5_out <= t114_s5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node22 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_15 : in unsigned(4 downto 0);
    t108_s5 : in unsigned(25 downto 0);
    t111_s5 : in unsigned(6 downto 0);
    t116_out : out unsigned(25 downto 0);
    t119_s5_out : out unsigned(5 downto 0)
  );
end entity square_root_dp_node22;

architecture rtl of square_root_dp_node22 is
  signal t117 : unsigned(5 downto 0);
  signal t118 : unsigned(5 downto 0);
  signal t115 : signed(26 downto 0);
  signal t116 : unsigned(25 downto 0);
  signal t119_s5 : unsigned(5 downto 0) := (others => '0');
begin
  t117 <= shift_left(resize(root_15, 6), 1);
  t118 <= t117 or to_unsigned(1, 6);
  t115 <= signed(resize(t108_s5, 27)) - signed(resize(t111_s5, 27));
  t116 <= unsigned(t115(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t119_s5 <= t118;
      end if;
    end if;
  end process;
  t116_out <= t116;
  t119_s5_out <= t119_s5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb18 is
  port (
    t116 : in unsigned(25 downto 0);
    n182_pipe : in unsigned(0 downto 0);
    pipe_s5 : in unsigned(25 downto 0);
    t119_s5 : in unsigned(5 downto 0);
    t114_s5 : in unsigned(5 downto 0);
    rem_18_out : out unsigned(25 downto 0);
    root_18_out : out unsigned(5 downto 0)
  );
end entity square_root_dp_mux_bb18;

architecture rtl of square_root_dp_mux_bb18 is
  signal rem_18 : unsigned(25 downto 0);
  signal root_18 : unsigned(5 downto 0);
begin
  rem_18 <= t116 when n182_pipe /= 0 else pipe_s5;
  root_18 <= t119_s5 when n182_pipe /= 0 else t114_s5;
  rem_18_out <= rem_18;
  root_18_out <= root_18;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node24 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_18 : in unsigned(25 downto 0);
    root_18 : in unsigned(5 downto 0);
    t127_out : out unsigned(25 downto 0);
    t127_s6_out : out unsigned(25 downto 0);
    t130_s6_out : out unsigned(7 downto 0);
    t131_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node24;

architecture rtl of square_root_dp_node24 is
  signal t122 : unsigned(13 downto 0);
  signal t123 : unsigned(1 downto 0);
  signal t125 : unsigned(27 downto 0);
  signal t124_s1 : unsigned(1 downto 0) := (others => '0');
  signal t124_s2 : unsigned(1 downto 0) := (others => '0');
  signal t124_s3 : unsigned(1 downto 0) := (others => '0');
  signal t124_s4 : unsigned(1 downto 0) := (others => '0');
  signal t124_s5 : unsigned(1 downto 0) := (others => '0');
  signal t126 : unsigned(27 downto 0);
  signal t127 : unsigned(25 downto 0);
  signal t128 : unsigned(7 downto 0);
  signal t129 : unsigned(7 downto 0);
  signal t127_s6 : unsigned(25 downto 0) := (others => '0');
  signal t130_s6 : unsigned(7 downto 0) := (others => '0');
  signal t131 : unsigned(0 downto 0);
begin
  t122 <= X0_pipe(23 downto 10);
  t123 <= t122(1 downto 0) and to_unsigned(3, 2);
  t125 <= shift_left(resize(rem_18, 28), 2);
  t126 <= t125 or resize(t124_s5, 28);
  t127 <= t126(25 downto 0);
  t128 <= shift_left(resize(root_18, 8), 2);
  t129 <= t128 or to_unsigned(1, 8);
  t131 <= "1" when signed(resize(t127_s6, 27)) >= signed(resize(t130_s6, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t124_s1 <= t123;
        t124_s2 <= t124_s1;
        t124_s3 <= t124_s2;
        t124_s4 <= t124_s3;
        t124_s5 <= t124_s4;
        t127_s6 <= t127;
        t130_s6 <= t129;
      end if;
    end if;
  end process;
  t127_out <= t127;
  t127_s6_out <= t127_s6;
  t130_s6_out <= t130_s6;
  t131_out <= t131;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node25 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_18 : in unsigned(5 downto 0);
    t133_s6_out : out unsigned(6 downto 0)
  );
end entity square_root_dp_node25;

architecture rtl of square_root_dp_node25 is
  signal t132 : unsigned(6 downto 0);
  signal t133_s6 : unsigned(6 downto 0) := (others => '0');
begin
  t132 <= shift_left(resize(root_18, 7), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t133_s6 <= t132;
      end if;
    end if;
  end process;
  t133_s6_out <= t133_s6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node26 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_18 : in unsigned(5 downto 0);
    t127_s6 : in unsigned(25 downto 0);
    t130_s6 : in unsigned(7 downto 0);
    t135_out : out unsigned(25 downto 0);
    t138_s6_out : out unsigned(6 downto 0)
  );
end entity square_root_dp_node26;

architecture rtl of square_root_dp_node26 is
  signal t136 : unsigned(6 downto 0);
  signal t137 : unsigned(6 downto 0);
  signal t134 : signed(26 downto 0);
  signal t135 : unsigned(25 downto 0);
  signal t138_s6 : unsigned(6 downto 0) := (others => '0');
begin
  t136 <= shift_left(resize(root_18, 7), 1);
  t137 <= t136 or to_unsigned(1, 7);
  t134 <= signed(resize(t127_s6, 27)) - signed(resize(t130_s6, 27));
  t135 <= unsigned(t134(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t138_s6 <= t137;
      end if;
    end if;
  end process;
  t135_out <= t135;
  t138_s6_out <= t138_s6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb21 is
  port (
    t135 : in unsigned(25 downto 0);
    n210_pipe : in unsigned(0 downto 0);
    pipe_s6 : in unsigned(25 downto 0);
    t138_s6 : in unsigned(6 downto 0);
    t133_s6 : in unsigned(6 downto 0);
    rem_21_out : out unsigned(25 downto 0);
    root_21_out : out unsigned(6 downto 0)
  );
end entity square_root_dp_mux_bb21;

architecture rtl of square_root_dp_mux_bb21 is
  signal rem_21 : unsigned(25 downto 0);
  signal root_21 : unsigned(6 downto 0);
begin
  rem_21 <= t135 when n210_pipe /= 0 else pipe_s6;
  root_21 <= t138_s6 when n210_pipe /= 0 else t133_s6;
  rem_21_out <= rem_21;
  root_21_out <= root_21;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node28 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_21 : in unsigned(25 downto 0);
    root_21 : in unsigned(6 downto 0);
    t146_out : out unsigned(25 downto 0);
    t146_s7_out : out unsigned(25 downto 0);
    t149_s7_out : out unsigned(8 downto 0);
    t150_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node28;

architecture rtl of square_root_dp_node28 is
  signal t141 : unsigned(15 downto 0);
  signal t142 : unsigned(1 downto 0);
  signal t144 : unsigned(27 downto 0);
  signal t143_s1 : unsigned(1 downto 0) := (others => '0');
  signal t143_s2 : unsigned(1 downto 0) := (others => '0');
  signal t143_s3 : unsigned(1 downto 0) := (others => '0');
  signal t143_s4 : unsigned(1 downto 0) := (others => '0');
  signal t143_s5 : unsigned(1 downto 0) := (others => '0');
  signal t143_s6 : unsigned(1 downto 0) := (others => '0');
  signal t145 : unsigned(27 downto 0);
  signal t146 : unsigned(25 downto 0);
  signal t147 : unsigned(8 downto 0);
  signal t148 : unsigned(8 downto 0);
  signal t146_s7 : unsigned(25 downto 0) := (others => '0');
  signal t149_s7 : unsigned(8 downto 0) := (others => '0');
  signal t150 : unsigned(0 downto 0);
begin
  t141 <= X0_pipe(23 downto 8);
  t142 <= t141(1 downto 0) and to_unsigned(3, 2);
  t144 <= shift_left(resize(rem_21, 28), 2);
  t145 <= t144 or resize(t143_s6, 28);
  t146 <= t145(25 downto 0);
  t147 <= shift_left(resize(root_21, 9), 2);
  t148 <= t147 or to_unsigned(1, 9);
  t150 <= "1" when signed(resize(t146_s7, 27)) >= signed(resize(t149_s7, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t143_s1 <= t142;
        t143_s2 <= t143_s1;
        t143_s3 <= t143_s2;
        t143_s4 <= t143_s3;
        t143_s5 <= t143_s4;
        t143_s6 <= t143_s5;
        t146_s7 <= t146;
        t149_s7 <= t148;
      end if;
    end if;
  end process;
  t146_out <= t146;
  t146_s7_out <= t146_s7;
  t149_s7_out <= t149_s7;
  t150_out <= t150;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node29 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_21 : in unsigned(6 downto 0);
    t152_s7_out : out unsigned(7 downto 0)
  );
end entity square_root_dp_node29;

architecture rtl of square_root_dp_node29 is
  signal t151 : unsigned(7 downto 0);
  signal t152_s7 : unsigned(7 downto 0) := (others => '0');
begin
  t151 <= shift_left(resize(root_21, 8), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t152_s7 <= t151;
      end if;
    end if;
  end process;
  t152_s7_out <= t152_s7;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node30 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_21 : in unsigned(6 downto 0);
    t146_s7 : in unsigned(25 downto 0);
    t149_s7 : in unsigned(8 downto 0);
    t154_out : out unsigned(25 downto 0);
    t157_s7_out : out unsigned(7 downto 0)
  );
end entity square_root_dp_node30;

architecture rtl of square_root_dp_node30 is
  signal t155 : unsigned(7 downto 0);
  signal t156 : unsigned(7 downto 0);
  signal t153 : signed(26 downto 0);
  signal t154 : unsigned(25 downto 0);
  signal t157_s7 : unsigned(7 downto 0) := (others => '0');
begin
  t155 <= shift_left(resize(root_21, 8), 1);
  t156 <= t155 or to_unsigned(1, 8);
  t153 <= signed(resize(t146_s7, 27)) - signed(resize(t149_s7, 27));
  t154 <= unsigned(t153(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t157_s7 <= t156;
      end if;
    end if;
  end process;
  t154_out <= t154;
  t157_s7_out <= t157_s7;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb24 is
  port (
    t154 : in unsigned(25 downto 0);
    n239_pipe : in unsigned(0 downto 0);
    pipe_s7 : in unsigned(25 downto 0);
    t157_s7 : in unsigned(7 downto 0);
    t152_s7 : in unsigned(7 downto 0);
    rem_24_out : out unsigned(25 downto 0);
    root_24_out : out unsigned(7 downto 0)
  );
end entity square_root_dp_mux_bb24;

architecture rtl of square_root_dp_mux_bb24 is
  signal rem_24 : unsigned(25 downto 0);
  signal root_24 : unsigned(7 downto 0);
begin
  rem_24 <= t154 when n239_pipe /= 0 else pipe_s7;
  root_24 <= t157_s7 when n239_pipe /= 0 else t152_s7;
  rem_24_out <= rem_24;
  root_24_out <= root_24;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node32 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_24 : in unsigned(25 downto 0);
    root_24 : in unsigned(7 downto 0);
    t165_out : out unsigned(25 downto 0);
    t165_s8_out : out unsigned(25 downto 0);
    t168_s8_out : out unsigned(9 downto 0);
    t169_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node32;

architecture rtl of square_root_dp_node32 is
  signal t160 : unsigned(17 downto 0);
  signal t161 : unsigned(1 downto 0);
  signal t163 : unsigned(27 downto 0);
  signal t162_s1 : unsigned(1 downto 0) := (others => '0');
  signal t162_s2 : unsigned(1 downto 0) := (others => '0');
  signal t162_s3 : unsigned(1 downto 0) := (others => '0');
  signal t162_s4 : unsigned(1 downto 0) := (others => '0');
  signal t162_s5 : unsigned(1 downto 0) := (others => '0');
  signal t162_s6 : unsigned(1 downto 0) := (others => '0');
  signal t162_s7 : unsigned(1 downto 0) := (others => '0');
  signal t164 : unsigned(27 downto 0);
  signal t165 : unsigned(25 downto 0);
  signal t166 : unsigned(9 downto 0);
  signal t167 : unsigned(9 downto 0);
  signal t165_s8 : unsigned(25 downto 0) := (others => '0');
  signal t168_s8 : unsigned(9 downto 0) := (others => '0');
  signal t169 : unsigned(0 downto 0);
begin
  t160 <= X0_pipe(23 downto 6);
  t161 <= t160(1 downto 0) and to_unsigned(3, 2);
  t163 <= shift_left(resize(rem_24, 28), 2);
  t164 <= t163 or resize(t162_s7, 28);
  t165 <= t164(25 downto 0);
  t166 <= shift_left(resize(root_24, 10), 2);
  t167 <= t166 or to_unsigned(1, 10);
  t169 <= "1" when signed(resize(t165_s8, 27)) >= signed(resize(t168_s8, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t162_s1 <= t161;
        t162_s2 <= t162_s1;
        t162_s3 <= t162_s2;
        t162_s4 <= t162_s3;
        t162_s5 <= t162_s4;
        t162_s6 <= t162_s5;
        t162_s7 <= t162_s6;
        t165_s8 <= t165;
        t168_s8 <= t167;
      end if;
    end if;
  end process;
  t165_out <= t165;
  t165_s8_out <= t165_s8;
  t168_s8_out <= t168_s8;
  t169_out <= t169;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node33 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_24 : in unsigned(7 downto 0);
    t171_s8_out : out unsigned(8 downto 0)
  );
end entity square_root_dp_node33;

architecture rtl of square_root_dp_node33 is
  signal t170 : unsigned(8 downto 0);
  signal t171_s8 : unsigned(8 downto 0) := (others => '0');
begin
  t170 <= shift_left(resize(root_24, 9), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t171_s8 <= t170;
      end if;
    end if;
  end process;
  t171_s8_out <= t171_s8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node34 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_24 : in unsigned(7 downto 0);
    t165_s8 : in unsigned(25 downto 0);
    t168_s8 : in unsigned(9 downto 0);
    t173_out : out unsigned(25 downto 0);
    t176_s8_out : out unsigned(8 downto 0)
  );
end entity square_root_dp_node34;

architecture rtl of square_root_dp_node34 is
  signal t174 : unsigned(8 downto 0);
  signal t175 : unsigned(8 downto 0);
  signal t172 : signed(26 downto 0);
  signal t173 : unsigned(25 downto 0);
  signal t176_s8 : unsigned(8 downto 0) := (others => '0');
begin
  t174 <= shift_left(resize(root_24, 9), 1);
  t175 <= t174 or to_unsigned(1, 9);
  t172 <= signed(resize(t165_s8, 27)) - signed(resize(t168_s8, 27));
  t173 <= unsigned(t172(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t176_s8 <= t175;
      end if;
    end if;
  end process;
  t173_out <= t173;
  t176_s8_out <= t176_s8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb27 is
  port (
    t173 : in unsigned(25 downto 0);
    n269_pipe : in unsigned(0 downto 0);
    pipe_s8 : in unsigned(25 downto 0);
    t176_s8 : in unsigned(8 downto 0);
    t171_s8 : in unsigned(8 downto 0);
    rem_27_out : out unsigned(25 downto 0);
    root_27_out : out unsigned(8 downto 0)
  );
end entity square_root_dp_mux_bb27;

architecture rtl of square_root_dp_mux_bb27 is
  signal rem_27 : unsigned(25 downto 0);
  signal root_27 : unsigned(8 downto 0);
begin
  rem_27 <= t173 when n269_pipe /= 0 else pipe_s8;
  root_27 <= t176_s8 when n269_pipe /= 0 else t171_s8;
  rem_27_out <= rem_27;
  root_27_out <= root_27;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node36 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_27 : in unsigned(25 downto 0);
    root_27 : in unsigned(8 downto 0);
    t184_out : out unsigned(25 downto 0);
    t184_s9_out : out unsigned(25 downto 0);
    t187_s9_out : out unsigned(10 downto 0);
    t188_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node36;

architecture rtl of square_root_dp_node36 is
  signal t179 : unsigned(19 downto 0);
  signal t180 : unsigned(1 downto 0);
  signal t182 : unsigned(27 downto 0);
  signal t181_s1 : unsigned(1 downto 0) := (others => '0');
  signal t181_s2 : unsigned(1 downto 0) := (others => '0');
  signal t181_s3 : unsigned(1 downto 0) := (others => '0');
  signal t181_s4 : unsigned(1 downto 0) := (others => '0');
  signal t181_s5 : unsigned(1 downto 0) := (others => '0');
  signal t181_s6 : unsigned(1 downto 0) := (others => '0');
  signal t181_s7 : unsigned(1 downto 0) := (others => '0');
  signal t181_s8 : unsigned(1 downto 0) := (others => '0');
  signal t183 : unsigned(27 downto 0);
  signal t184 : unsigned(25 downto 0);
  signal t185 : unsigned(10 downto 0);
  signal t186 : unsigned(10 downto 0);
  signal t184_s9 : unsigned(25 downto 0) := (others => '0');
  signal t187_s9 : unsigned(10 downto 0) := (others => '0');
  signal t188 : unsigned(0 downto 0);
begin
  t179 <= X0_pipe(23 downto 4);
  t180 <= t179(1 downto 0) and to_unsigned(3, 2);
  t182 <= shift_left(resize(rem_27, 28), 2);
  t183 <= t182 or resize(t181_s8, 28);
  t184 <= t183(25 downto 0);
  t185 <= shift_left(resize(root_27, 11), 2);
  t186 <= t185 or to_unsigned(1, 11);
  t188 <= "1" when signed(resize(t184_s9, 27)) >= signed(resize(t187_s9, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t181_s1 <= t180;
        t181_s2 <= t181_s1;
        t181_s3 <= t181_s2;
        t181_s4 <= t181_s3;
        t181_s5 <= t181_s4;
        t181_s6 <= t181_s5;
        t181_s7 <= t181_s6;
        t181_s8 <= t181_s7;
        t184_s9 <= t184;
        t187_s9 <= t186;
      end if;
    end if;
  end process;
  t184_out <= t184;
  t184_s9_out <= t184_s9;
  t187_s9_out <= t187_s9;
  t188_out <= t188;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node37 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_27 : in unsigned(8 downto 0);
    t190_s9_out : out unsigned(9 downto 0)
  );
end entity square_root_dp_node37;

architecture rtl of square_root_dp_node37 is
  signal t189 : unsigned(9 downto 0);
  signal t190_s9 : unsigned(9 downto 0) := (others => '0');
begin
  t189 <= shift_left(resize(root_27, 10), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t190_s9 <= t189;
      end if;
    end if;
  end process;
  t190_s9_out <= t190_s9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node38 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_27 : in unsigned(8 downto 0);
    t184_s9 : in unsigned(25 downto 0);
    t187_s9 : in unsigned(10 downto 0);
    t192_out : out unsigned(25 downto 0);
    t195_s9_out : out unsigned(9 downto 0)
  );
end entity square_root_dp_node38;

architecture rtl of square_root_dp_node38 is
  signal t193 : unsigned(9 downto 0);
  signal t194 : unsigned(9 downto 0);
  signal t191 : signed(26 downto 0);
  signal t192 : unsigned(25 downto 0);
  signal t195_s9 : unsigned(9 downto 0) := (others => '0');
begin
  t193 <= shift_left(resize(root_27, 10), 1);
  t194 <= t193 or to_unsigned(1, 10);
  t191 <= signed(resize(t184_s9, 27)) - signed(resize(t187_s9, 27));
  t192 <= unsigned(t191(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t195_s9 <= t194;
      end if;
    end if;
  end process;
  t192_out <= t192;
  t195_s9_out <= t195_s9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb30 is
  port (
    t192 : in unsigned(25 downto 0);
    n300_pipe : in unsigned(0 downto 0);
    pipe_s9 : in unsigned(25 downto 0);
    t195_s9 : in unsigned(9 downto 0);
    t190_s9 : in unsigned(9 downto 0);
    rem_30_out : out unsigned(25 downto 0);
    root_30_out : out unsigned(9 downto 0)
  );
end entity square_root_dp_mux_bb30;

architecture rtl of square_root_dp_mux_bb30 is
  signal rem_30 : unsigned(25 downto 0);
  signal root_30 : unsigned(9 downto 0);
begin
  rem_30 <= t192 when n300_pipe /= 0 else pipe_s9;
  root_30 <= t195_s9 when n300_pipe /= 0 else t190_s9;
  rem_30_out <= rem_30;
  root_30_out <= root_30;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node40 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_30 : in unsigned(25 downto 0);
    root_30 : in unsigned(9 downto 0);
    t203_out : out unsigned(25 downto 0);
    t203_s10_out : out unsigned(25 downto 0);
    t206_s10_out : out unsigned(11 downto 0);
    t207_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node40;

architecture rtl of square_root_dp_node40 is
  signal t198 : unsigned(21 downto 0);
  signal t199 : unsigned(1 downto 0);
  signal t201 : unsigned(27 downto 0);
  signal t200_s1 : unsigned(1 downto 0) := (others => '0');
  signal t200_s2 : unsigned(1 downto 0) := (others => '0');
  signal t200_s3 : unsigned(1 downto 0) := (others => '0');
  signal t200_s4 : unsigned(1 downto 0) := (others => '0');
  signal t200_s5 : unsigned(1 downto 0) := (others => '0');
  signal t200_s6 : unsigned(1 downto 0) := (others => '0');
  signal t200_s7 : unsigned(1 downto 0) := (others => '0');
  signal t200_s8 : unsigned(1 downto 0) := (others => '0');
  signal t200_s9 : unsigned(1 downto 0) := (others => '0');
  signal t202 : unsigned(27 downto 0);
  signal t203 : unsigned(25 downto 0);
  signal t204 : unsigned(11 downto 0);
  signal t205 : unsigned(11 downto 0);
  signal t203_s10 : unsigned(25 downto 0) := (others => '0');
  signal t206_s10 : unsigned(11 downto 0) := (others => '0');
  signal t207 : unsigned(0 downto 0);
begin
  t198 <= X0_pipe(23 downto 2);
  t199 <= t198(1 downto 0) and to_unsigned(3, 2);
  t201 <= shift_left(resize(rem_30, 28), 2);
  t202 <= t201 or resize(t200_s9, 28);
  t203 <= t202(25 downto 0);
  t204 <= shift_left(resize(root_30, 12), 2);
  t205 <= t204 or to_unsigned(1, 12);
  t207 <= "1" when signed(resize(t203_s10, 27)) >= signed(resize(t206_s10, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t200_s1 <= t199;
        t200_s2 <= t200_s1;
        t200_s3 <= t200_s2;
        t200_s4 <= t200_s3;
        t200_s5 <= t200_s4;
        t200_s6 <= t200_s5;
        t200_s7 <= t200_s6;
        t200_s8 <= t200_s7;
        t200_s9 <= t200_s8;
        t203_s10 <= t203;
        t206_s10 <= t205;
      end if;
    end if;
  end process;
  t203_out <= t203;
  t203_s10_out <= t203_s10;
  t206_s10_out <= t206_s10;
  t207_out <= t207;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node41 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_30 : in unsigned(9 downto 0);
    t209_s10_out : out unsigned(10 downto 0)
  );
end entity square_root_dp_node41;

architecture rtl of square_root_dp_node41 is
  signal t208 : unsigned(10 downto 0);
  signal t209_s10 : unsigned(10 downto 0) := (others => '0');
begin
  t208 <= shift_left(resize(root_30, 11), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t209_s10 <= t208;
      end if;
    end if;
  end process;
  t209_s10_out <= t209_s10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node42 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_30 : in unsigned(9 downto 0);
    t203_s10 : in unsigned(25 downto 0);
    t206_s10 : in unsigned(11 downto 0);
    t211_out : out unsigned(25 downto 0);
    t214_s10_out : out unsigned(10 downto 0)
  );
end entity square_root_dp_node42;

architecture rtl of square_root_dp_node42 is
  signal t212 : unsigned(10 downto 0);
  signal t213 : unsigned(10 downto 0);
  signal t210 : signed(26 downto 0);
  signal t211 : unsigned(25 downto 0);
  signal t214_s10 : unsigned(10 downto 0) := (others => '0');
begin
  t212 <= shift_left(resize(root_30, 11), 1);
  t213 <= t212 or to_unsigned(1, 11);
  t210 <= signed(resize(t203_s10, 27)) - signed(resize(t206_s10, 27));
  t211 <= unsigned(t210(25 downto 0));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t214_s10 <= t213;
      end if;
    end if;
  end process;
  t211_out <= t211;
  t214_s10_out <= t214_s10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb33 is
  port (
    t211 : in unsigned(25 downto 0);
    n332_pipe : in unsigned(0 downto 0);
    pipe_s10 : in unsigned(25 downto 0);
    t214_s10 : in unsigned(10 downto 0);
    t209_s10 : in unsigned(10 downto 0);
    rem_33_out : out unsigned(25 downto 0);
    root_33_out : out unsigned(10 downto 0)
  );
end entity square_root_dp_mux_bb33;

architecture rtl of square_root_dp_mux_bb33 is
  signal rem_33 : unsigned(25 downto 0);
  signal root_33 : unsigned(10 downto 0);
begin
  rem_33 <= t211 when n332_pipe /= 0 else pipe_s10;
  root_33 <= t214_s10 when n332_pipe /= 0 else t209_s10;
  rem_33_out <= rem_33;
  root_33_out <= root_33;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node44 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0_pipe : in unsigned(23 downto 0);
    rem_33 : in unsigned(25 downto 0);
    root_33 : in unsigned(10 downto 0);
    t226_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_node44;

architecture rtl of square_root_dp_node44 is
  signal t218 : unsigned(1 downto 0);
  signal t220 : unsigned(27 downto 0);
  signal t219_s1 : unsigned(1 downto 0) := (others => '0');
  signal t219_s2 : unsigned(1 downto 0) := (others => '0');
  signal t219_s3 : unsigned(1 downto 0) := (others => '0');
  signal t219_s4 : unsigned(1 downto 0) := (others => '0');
  signal t219_s5 : unsigned(1 downto 0) := (others => '0');
  signal t219_s6 : unsigned(1 downto 0) := (others => '0');
  signal t219_s7 : unsigned(1 downto 0) := (others => '0');
  signal t219_s8 : unsigned(1 downto 0) := (others => '0');
  signal t219_s9 : unsigned(1 downto 0) := (others => '0');
  signal t219_s10 : unsigned(1 downto 0) := (others => '0');
  signal t221 : unsigned(27 downto 0);
  signal t223 : unsigned(12 downto 0);
  signal t224 : unsigned(12 downto 0);
  signal t222_s11 : unsigned(25 downto 0) := (others => '0');
  signal t225_s11 : unsigned(12 downto 0) := (others => '0');
  signal t226 : unsigned(0 downto 0);
begin
  t218 <= X0_pipe(1 downto 0) and to_unsigned(3, 2);
  t220 <= shift_left(resize(rem_33, 28), 2);
  t221 <= t220 or resize(t219_s10, 28);
  t223 <= shift_left(resize(root_33, 13), 2);
  t224 <= t223 or to_unsigned(1, 13);
  t226 <= "1" when signed(resize(t222_s11, 27)) >= signed(resize(t225_s11, 27)) else "0";
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t219_s1 <= t218;
        t219_s2 <= t219_s1;
        t219_s3 <= t219_s2;
        t219_s4 <= t219_s3;
        t219_s5 <= t219_s4;
        t219_s6 <= t219_s5;
        t219_s7 <= t219_s6;
        t219_s8 <= t219_s7;
        t219_s9 <= t219_s8;
        t219_s10 <= t219_s9;
        t222_s11 <= t221(25 downto 0);
        t225_s11 <= t224;
      end if;
    end if;
  end process;
  t226_out <= t226;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node45 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_33 : in unsigned(10 downto 0);
    t228_s11_out : out unsigned(11 downto 0)
  );
end entity square_root_dp_node45;

architecture rtl of square_root_dp_node45 is
  signal t227 : unsigned(11 downto 0);
  signal t228_s11 : unsigned(11 downto 0) := (others => '0');
begin
  t227 <= shift_left(resize(root_33, 12), 1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t228_s11 <= t227;
      end if;
    end if;
  end process;
  t228_s11_out <= t228_s11;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node46 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    root_33 : in unsigned(10 downto 0);
    t231_s11_out : out unsigned(11 downto 0)
  );
end entity square_root_dp_node46;

architecture rtl of square_root_dp_node46 is
  signal t229 : unsigned(11 downto 0);
  signal t230 : unsigned(11 downto 0);
  signal t231_s11 : unsigned(11 downto 0) := (others => '0');
begin
  t229 <= shift_left(resize(root_33, 12), 1);
  t230 <= t229 or to_unsigned(1, 12);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t231_s11 <= t230;
      end if;
    end if;
  end process;
  t231_s11_out <= t231_s11;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_mux_bb36 is
  port (
    n362_pipe : in unsigned(0 downto 0);
    t231_s11 : in unsigned(11 downto 0);
    t228_s11 : in unsigned(11 downto 0);
    root_36_out : out unsigned(11 downto 0)
  );
end entity square_root_dp_mux_bb36;

architecture rtl of square_root_dp_mux_bb36 is
  signal root_36 : unsigned(11 downto 0);
begin
  root_36 <= t231_s11 when n362_pipe /= 0 else t228_s11;
  root_36_out <= root_36;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_node48 is
  port (
    root_36 : in unsigned(11 downto 0);
    t233_out : out unsigned(11 downto 0)
  );
end entity square_root_dp_node48;

architecture rtl of square_root_dp_node48 is
  signal t233 : unsigned(11 downto 0);
begin
  t233 <= root_36;
  t233_out <= t233;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb3 is
  port (
    X0 : in unsigned(23 downto 0);
    t9 : in unsigned(1 downto 0);
    t12 : in unsigned(0 downto 0);
    X0_pipe_out : out unsigned(23 downto 0);
    n55_pipe_out : out unsigned(1 downto 0);
    n59_pipe_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_pipe_bb3;

architecture rtl of square_root_dp_pipe_bb3 is
  signal X0_pipe : unsigned(23 downto 0);
  signal n55_pipe : unsigned(1 downto 0);
  signal n59_pipe : unsigned(0 downto 0);
begin
  X0_pipe <= X0;
  n55_pipe <= t9;
  n59_pipe <= t12;
  X0_pipe_out <= X0_pipe;
  n55_pipe_out <= n55_pipe;
  n59_pipe_out <= n59_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb6 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t24 : in unsigned(25 downto 0);
    t28 : in unsigned(0 downto 0);
    n80_pipe_out : out unsigned(0 downto 0);
    pipe_s1_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb6;

architecture rtl of square_root_dp_pipe_bb6 is
  signal n80_pipe : unsigned(0 downto 0);
  signal pipe_s1 : unsigned(25 downto 0) := (others => '0');
begin
  n80_pipe <= t28;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s1 <= t24;
      end if;
    end if;
  end process;
  n80_pipe_out <= n80_pipe;
  pipe_s1_out <= pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb9 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t45 : in unsigned(25 downto 0);
    t49 : in unsigned(0 downto 0);
    n104_pipe_out : out unsigned(0 downto 0);
    pipe_s2_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb9;

architecture rtl of square_root_dp_pipe_bb9 is
  signal n104_pipe : unsigned(0 downto 0);
  signal pipe_s2 : unsigned(25 downto 0) := (others => '0');
begin
  n104_pipe <= t49;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s2 <= t45;
      end if;
    end if;
  end process;
  n104_pipe_out <= n104_pipe;
  pipe_s2_out <= pipe_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb12 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t66 : in unsigned(25 downto 0);
    t70 : in unsigned(0 downto 0);
    n129_pipe_out : out unsigned(0 downto 0);
    pipe_s3_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb12;

architecture rtl of square_root_dp_pipe_bb12 is
  signal n129_pipe : unsigned(0 downto 0);
  signal pipe_s3 : unsigned(25 downto 0) := (others => '0');
begin
  n129_pipe <= t70;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s3 <= t66;
      end if;
    end if;
  end process;
  n129_pipe_out <= n129_pipe;
  pipe_s3_out <= pipe_s3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb15 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t87 : in unsigned(25 downto 0);
    t91 : in unsigned(0 downto 0);
    n155_pipe_out : out unsigned(0 downto 0);
    pipe_s4_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb15;

architecture rtl of square_root_dp_pipe_bb15 is
  signal n155_pipe : unsigned(0 downto 0);
  signal pipe_s4 : unsigned(25 downto 0) := (others => '0');
begin
  n155_pipe <= t91;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s4 <= t87;
      end if;
    end if;
  end process;
  n155_pipe_out <= n155_pipe;
  pipe_s4_out <= pipe_s4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb18 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t108 : in unsigned(25 downto 0);
    t112 : in unsigned(0 downto 0);
    n182_pipe_out : out unsigned(0 downto 0);
    pipe_s5_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb18;

architecture rtl of square_root_dp_pipe_bb18 is
  signal n182_pipe : unsigned(0 downto 0);
  signal pipe_s5 : unsigned(25 downto 0) := (others => '0');
begin
  n182_pipe <= t112;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s5 <= t108;
      end if;
    end if;
  end process;
  n182_pipe_out <= n182_pipe;
  pipe_s5_out <= pipe_s5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb21 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t127 : in unsigned(25 downto 0);
    t131 : in unsigned(0 downto 0);
    n210_pipe_out : out unsigned(0 downto 0);
    pipe_s6_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb21;

architecture rtl of square_root_dp_pipe_bb21 is
  signal n210_pipe : unsigned(0 downto 0);
  signal pipe_s6 : unsigned(25 downto 0) := (others => '0');
begin
  n210_pipe <= t131;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s6 <= t127;
      end if;
    end if;
  end process;
  n210_pipe_out <= n210_pipe;
  pipe_s6_out <= pipe_s6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb24 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t146 : in unsigned(25 downto 0);
    t150 : in unsigned(0 downto 0);
    n239_pipe_out : out unsigned(0 downto 0);
    pipe_s7_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb24;

architecture rtl of square_root_dp_pipe_bb24 is
  signal n239_pipe : unsigned(0 downto 0);
  signal pipe_s7 : unsigned(25 downto 0) := (others => '0');
begin
  n239_pipe <= t150;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s7 <= t146;
      end if;
    end if;
  end process;
  n239_pipe_out <= n239_pipe;
  pipe_s7_out <= pipe_s7;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb27 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t165 : in unsigned(25 downto 0);
    t169 : in unsigned(0 downto 0);
    n269_pipe_out : out unsigned(0 downto 0);
    pipe_s8_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb27;

architecture rtl of square_root_dp_pipe_bb27 is
  signal n269_pipe : unsigned(0 downto 0);
  signal pipe_s8 : unsigned(25 downto 0) := (others => '0');
begin
  n269_pipe <= t169;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s8 <= t165;
      end if;
    end if;
  end process;
  n269_pipe_out <= n269_pipe;
  pipe_s8_out <= pipe_s8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb30 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t184 : in unsigned(25 downto 0);
    t188 : in unsigned(0 downto 0);
    n300_pipe_out : out unsigned(0 downto 0);
    pipe_s9_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb30;

architecture rtl of square_root_dp_pipe_bb30 is
  signal n300_pipe : unsigned(0 downto 0);
  signal pipe_s9 : unsigned(25 downto 0) := (others => '0');
begin
  n300_pipe <= t188;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s9 <= t184;
      end if;
    end if;
  end process;
  n300_pipe_out <= n300_pipe;
  pipe_s9_out <= pipe_s9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb33 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t203 : in unsigned(25 downto 0);
    t207 : in unsigned(0 downto 0);
    n332_pipe_out : out unsigned(0 downto 0);
    pipe_s10_out : out unsigned(25 downto 0)
  );
end entity square_root_dp_pipe_bb33;

architecture rtl of square_root_dp_pipe_bb33 is
  signal n332_pipe : unsigned(0 downto 0);
  signal pipe_s10 : unsigned(25 downto 0) := (others => '0');
begin
  n332_pipe <= t207;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        pipe_s10 <= t203;
      end if;
    end if;
  end process;
  n332_pipe_out <= n332_pipe;
  pipe_s10_out <= pipe_s10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp_pipe_bb36 is
  port (
    t226 : in unsigned(0 downto 0);
    n362_pipe_out : out unsigned(0 downto 0)
  );
end entity square_root_dp_pipe_bb36;

architecture rtl of square_root_dp_pipe_bb36 is
  signal n362_pipe : unsigned(0 downto 0);
begin
  n362_pipe <= t226;
  n362_pipe_out <= n362_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity square_root_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    X0 : in unsigned(23 downto 0);
    R_o0 : out unsigned(11 downto 0)
  );
end entity square_root_dp;

architecture rtl of square_root_dp is
  signal X0_pipe : unsigned(23 downto 0);
  signal t9 : unsigned(1 downto 0);
  signal n55_pipe : unsigned(1 downto 0);
  signal t14 : unsigned(25 downto 0);
  signal t12 : unsigned(0 downto 0);
  signal n59_pipe : unsigned(0 downto 0);
  signal rem_3 : unsigned(25 downto 0);
  signal t24 : unsigned(25 downto 0);
  signal root_3 : unsigned(0 downto 0);
  signal t24_s1 : unsigned(25 downto 0);
  signal t27_s1 : unsigned(2 downto 0);
  signal t32 : unsigned(25 downto 0);
  signal t28 : unsigned(0 downto 0);
  signal n80_pipe : unsigned(0 downto 0);
  signal pipe_s1 : unsigned(25 downto 0);
  signal rem_6 : unsigned(25 downto 0);
  signal t45 : unsigned(25 downto 0);
  signal t35_s1 : unsigned(1 downto 0);
  signal t30_s1 : unsigned(1 downto 0);
  signal root_6 : unsigned(1 downto 0);
  signal t45_s2 : unsigned(25 downto 0);
  signal t48_s2 : unsigned(3 downto 0);
  signal t53 : unsigned(25 downto 0);
  signal t49 : unsigned(0 downto 0);
  signal n104_pipe : unsigned(0 downto 0);
  signal pipe_s2 : unsigned(25 downto 0);
  signal rem_9 : unsigned(25 downto 0);
  signal t66 : unsigned(25 downto 0);
  signal t56_s2 : unsigned(2 downto 0);
  signal t51_s2 : unsigned(2 downto 0);
  signal root_9 : unsigned(2 downto 0);
  signal t66_s3 : unsigned(25 downto 0);
  signal t69_s3 : unsigned(4 downto 0);
  signal t74 : unsigned(25 downto 0);
  signal t70 : unsigned(0 downto 0);
  signal n129_pipe : unsigned(0 downto 0);
  signal pipe_s3 : unsigned(25 downto 0);
  signal rem_12 : unsigned(25 downto 0);
  signal t87 : unsigned(25 downto 0);
  signal t77_s3 : unsigned(3 downto 0);
  signal t72_s3 : unsigned(3 downto 0);
  signal root_12 : unsigned(3 downto 0);
  signal t87_s4 : unsigned(25 downto 0);
  signal t90_s4 : unsigned(5 downto 0);
  signal t95 : unsigned(25 downto 0);
  signal t91 : unsigned(0 downto 0);
  signal n155_pipe : unsigned(0 downto 0);
  signal pipe_s4 : unsigned(25 downto 0);
  signal rem_15 : unsigned(25 downto 0);
  signal t108 : unsigned(25 downto 0);
  signal t98_s4 : unsigned(4 downto 0);
  signal t93_s4 : unsigned(4 downto 0);
  signal root_15 : unsigned(4 downto 0);
  signal t108_s5 : unsigned(25 downto 0);
  signal t111_s5 : unsigned(6 downto 0);
  signal t116 : unsigned(25 downto 0);
  signal t112 : unsigned(0 downto 0);
  signal n182_pipe : unsigned(0 downto 0);
  signal pipe_s5 : unsigned(25 downto 0);
  signal rem_18 : unsigned(25 downto 0);
  signal t127 : unsigned(25 downto 0);
  signal t119_s5 : unsigned(5 downto 0);
  signal t114_s5 : unsigned(5 downto 0);
  signal root_18 : unsigned(5 downto 0);
  signal t127_s6 : unsigned(25 downto 0);
  signal t130_s6 : unsigned(7 downto 0);
  signal t135 : unsigned(25 downto 0);
  signal t131 : unsigned(0 downto 0);
  signal n210_pipe : unsigned(0 downto 0);
  signal pipe_s6 : unsigned(25 downto 0);
  signal rem_21 : unsigned(25 downto 0);
  signal t146 : unsigned(25 downto 0);
  signal t138_s6 : unsigned(6 downto 0);
  signal t133_s6 : unsigned(6 downto 0);
  signal root_21 : unsigned(6 downto 0);
  signal t146_s7 : unsigned(25 downto 0);
  signal t149_s7 : unsigned(8 downto 0);
  signal t154 : unsigned(25 downto 0);
  signal t150 : unsigned(0 downto 0);
  signal n239_pipe : unsigned(0 downto 0);
  signal pipe_s7 : unsigned(25 downto 0);
  signal rem_24 : unsigned(25 downto 0);
  signal t165 : unsigned(25 downto 0);
  signal t157_s7 : unsigned(7 downto 0);
  signal t152_s7 : unsigned(7 downto 0);
  signal root_24 : unsigned(7 downto 0);
  signal t165_s8 : unsigned(25 downto 0);
  signal t168_s8 : unsigned(9 downto 0);
  signal t173 : unsigned(25 downto 0);
  signal t169 : unsigned(0 downto 0);
  signal n269_pipe : unsigned(0 downto 0);
  signal pipe_s8 : unsigned(25 downto 0);
  signal rem_27 : unsigned(25 downto 0);
  signal t184 : unsigned(25 downto 0);
  signal t176_s8 : unsigned(8 downto 0);
  signal t171_s8 : unsigned(8 downto 0);
  signal root_27 : unsigned(8 downto 0);
  signal t184_s9 : unsigned(25 downto 0);
  signal t187_s9 : unsigned(10 downto 0);
  signal t192 : unsigned(25 downto 0);
  signal t188 : unsigned(0 downto 0);
  signal n300_pipe : unsigned(0 downto 0);
  signal pipe_s9 : unsigned(25 downto 0);
  signal rem_30 : unsigned(25 downto 0);
  signal t203 : unsigned(25 downto 0);
  signal t195_s9 : unsigned(9 downto 0);
  signal t190_s9 : unsigned(9 downto 0);
  signal root_30 : unsigned(9 downto 0);
  signal t203_s10 : unsigned(25 downto 0);
  signal t206_s10 : unsigned(11 downto 0);
  signal t211 : unsigned(25 downto 0);
  signal t207 : unsigned(0 downto 0);
  signal n332_pipe : unsigned(0 downto 0);
  signal pipe_s10 : unsigned(25 downto 0);
  signal rem_33 : unsigned(25 downto 0);
  signal t214_s10 : unsigned(10 downto 0);
  signal t209_s10 : unsigned(10 downto 0);
  signal root_33 : unsigned(10 downto 0);
  signal t226 : unsigned(0 downto 0);
  signal n362_pipe : unsigned(0 downto 0);
  signal t231_s11 : unsigned(11 downto 0);
  signal t228_s11 : unsigned(11 downto 0);
  signal root_36 : unsigned(11 downto 0);
  signal t233 : unsigned(11 downto 0);
begin
  u_node1 : entity work.square_root_dp_node1
    port map (X0 => X0, t9_out => t9, t12_out => t12);
  u_node2 : entity work.square_root_dp_node2
    port map (t9 => t9, t14_out => t14);
  u_mux_bb3 : entity work.square_root_dp_mux_bb3
    port map (n55_pipe => n55_pipe, t14 => t14, n59_pipe => n59_pipe, rem_3_out => rem_3, root_3_out => root_3);
  u_node4 : entity work.square_root_dp_node4
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_3 => rem_3, root_3 => root_3, t24_out => t24, t24_s1_out => t24_s1, t27_s1_out => t27_s1, t28_out => t28);
  u_node5 : entity work.square_root_dp_node5
    port map (clk => clk, ce => ce, root_3 => root_3, t30_s1_out => t30_s1);
  u_node6 : entity work.square_root_dp_node6
    port map (clk => clk, ce => ce, root_3 => root_3, t24_s1 => t24_s1, t27_s1 => t27_s1, t32_out => t32, t35_s1_out => t35_s1);
  u_mux_bb6 : entity work.square_root_dp_mux_bb6
    port map (t32 => t32, n80_pipe => n80_pipe, pipe_s1 => pipe_s1, t35_s1 => t35_s1, t30_s1 => t30_s1, rem_6_out => rem_6, root_6_out => root_6);
  u_node8 : entity work.square_root_dp_node8
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_6 => rem_6, root_6 => root_6, t45_out => t45, t45_s2_out => t45_s2, t48_s2_out => t48_s2, t49_out => t49);
  u_node9 : entity work.square_root_dp_node9
    port map (clk => clk, ce => ce, root_6 => root_6, t51_s2_out => t51_s2);
  u_node10 : entity work.square_root_dp_node10
    port map (clk => clk, ce => ce, root_6 => root_6, t45_s2 => t45_s2, t48_s2 => t48_s2, t53_out => t53, t56_s2_out => t56_s2);
  u_mux_bb9 : entity work.square_root_dp_mux_bb9
    port map (t53 => t53, n104_pipe => n104_pipe, pipe_s2 => pipe_s2, t56_s2 => t56_s2, t51_s2 => t51_s2, rem_9_out => rem_9, root_9_out => root_9);
  u_node12 : entity work.square_root_dp_node12
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_9 => rem_9, root_9 => root_9, t66_out => t66, t66_s3_out => t66_s3, t69_s3_out => t69_s3, t70_out => t70);
  u_node13 : entity work.square_root_dp_node13
    port map (clk => clk, ce => ce, root_9 => root_9, t72_s3_out => t72_s3);
  u_node14 : entity work.square_root_dp_node14
    port map (clk => clk, ce => ce, root_9 => root_9, t66_s3 => t66_s3, t69_s3 => t69_s3, t74_out => t74, t77_s3_out => t77_s3);
  u_mux_bb12 : entity work.square_root_dp_mux_bb12
    port map (t74 => t74, n129_pipe => n129_pipe, pipe_s3 => pipe_s3, t77_s3 => t77_s3, t72_s3 => t72_s3, rem_12_out => rem_12, root_12_out => root_12);
  u_node16 : entity work.square_root_dp_node16
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_12 => rem_12, root_12 => root_12, t87_out => t87, t87_s4_out => t87_s4, t90_s4_out => t90_s4, t91_out => t91);
  u_node17 : entity work.square_root_dp_node17
    port map (clk => clk, ce => ce, root_12 => root_12, t93_s4_out => t93_s4);
  u_node18 : entity work.square_root_dp_node18
    port map (clk => clk, ce => ce, root_12 => root_12, t87_s4 => t87_s4, t90_s4 => t90_s4, t95_out => t95, t98_s4_out => t98_s4);
  u_mux_bb15 : entity work.square_root_dp_mux_bb15
    port map (t95 => t95, n155_pipe => n155_pipe, pipe_s4 => pipe_s4, t98_s4 => t98_s4, t93_s4 => t93_s4, rem_15_out => rem_15, root_15_out => root_15);
  u_node20 : entity work.square_root_dp_node20
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_15 => rem_15, root_15 => root_15, t108_out => t108, t108_s5_out => t108_s5, t111_s5_out => t111_s5, t112_out => t112);
  u_node21 : entity work.square_root_dp_node21
    port map (clk => clk, ce => ce, root_15 => root_15, t114_s5_out => t114_s5);
  u_node22 : entity work.square_root_dp_node22
    port map (clk => clk, ce => ce, root_15 => root_15, t108_s5 => t108_s5, t111_s5 => t111_s5, t116_out => t116, t119_s5_out => t119_s5);
  u_mux_bb18 : entity work.square_root_dp_mux_bb18
    port map (t116 => t116, n182_pipe => n182_pipe, pipe_s5 => pipe_s5, t119_s5 => t119_s5, t114_s5 => t114_s5, rem_18_out => rem_18, root_18_out => root_18);
  u_node24 : entity work.square_root_dp_node24
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_18 => rem_18, root_18 => root_18, t127_out => t127, t127_s6_out => t127_s6, t130_s6_out => t130_s6, t131_out => t131);
  u_node25 : entity work.square_root_dp_node25
    port map (clk => clk, ce => ce, root_18 => root_18, t133_s6_out => t133_s6);
  u_node26 : entity work.square_root_dp_node26
    port map (clk => clk, ce => ce, root_18 => root_18, t127_s6 => t127_s6, t130_s6 => t130_s6, t135_out => t135, t138_s6_out => t138_s6);
  u_mux_bb21 : entity work.square_root_dp_mux_bb21
    port map (t135 => t135, n210_pipe => n210_pipe, pipe_s6 => pipe_s6, t138_s6 => t138_s6, t133_s6 => t133_s6, rem_21_out => rem_21, root_21_out => root_21);
  u_node28 : entity work.square_root_dp_node28
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_21 => rem_21, root_21 => root_21, t146_out => t146, t146_s7_out => t146_s7, t149_s7_out => t149_s7, t150_out => t150);
  u_node29 : entity work.square_root_dp_node29
    port map (clk => clk, ce => ce, root_21 => root_21, t152_s7_out => t152_s7);
  u_node30 : entity work.square_root_dp_node30
    port map (clk => clk, ce => ce, root_21 => root_21, t146_s7 => t146_s7, t149_s7 => t149_s7, t154_out => t154, t157_s7_out => t157_s7);
  u_mux_bb24 : entity work.square_root_dp_mux_bb24
    port map (t154 => t154, n239_pipe => n239_pipe, pipe_s7 => pipe_s7, t157_s7 => t157_s7, t152_s7 => t152_s7, rem_24_out => rem_24, root_24_out => root_24);
  u_node32 : entity work.square_root_dp_node32
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_24 => rem_24, root_24 => root_24, t165_out => t165, t165_s8_out => t165_s8, t168_s8_out => t168_s8, t169_out => t169);
  u_node33 : entity work.square_root_dp_node33
    port map (clk => clk, ce => ce, root_24 => root_24, t171_s8_out => t171_s8);
  u_node34 : entity work.square_root_dp_node34
    port map (clk => clk, ce => ce, root_24 => root_24, t165_s8 => t165_s8, t168_s8 => t168_s8, t173_out => t173, t176_s8_out => t176_s8);
  u_mux_bb27 : entity work.square_root_dp_mux_bb27
    port map (t173 => t173, n269_pipe => n269_pipe, pipe_s8 => pipe_s8, t176_s8 => t176_s8, t171_s8 => t171_s8, rem_27_out => rem_27, root_27_out => root_27);
  u_node36 : entity work.square_root_dp_node36
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_27 => rem_27, root_27 => root_27, t184_out => t184, t184_s9_out => t184_s9, t187_s9_out => t187_s9, t188_out => t188);
  u_node37 : entity work.square_root_dp_node37
    port map (clk => clk, ce => ce, root_27 => root_27, t190_s9_out => t190_s9);
  u_node38 : entity work.square_root_dp_node38
    port map (clk => clk, ce => ce, root_27 => root_27, t184_s9 => t184_s9, t187_s9 => t187_s9, t192_out => t192, t195_s9_out => t195_s9);
  u_mux_bb30 : entity work.square_root_dp_mux_bb30
    port map (t192 => t192, n300_pipe => n300_pipe, pipe_s9 => pipe_s9, t195_s9 => t195_s9, t190_s9 => t190_s9, rem_30_out => rem_30, root_30_out => root_30);
  u_node40 : entity work.square_root_dp_node40
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_30 => rem_30, root_30 => root_30, t203_out => t203, t203_s10_out => t203_s10, t206_s10_out => t206_s10, t207_out => t207);
  u_node41 : entity work.square_root_dp_node41
    port map (clk => clk, ce => ce, root_30 => root_30, t209_s10_out => t209_s10);
  u_node42 : entity work.square_root_dp_node42
    port map (clk => clk, ce => ce, root_30 => root_30, t203_s10 => t203_s10, t206_s10 => t206_s10, t211_out => t211, t214_s10_out => t214_s10);
  u_mux_bb33 : entity work.square_root_dp_mux_bb33
    port map (t211 => t211, n332_pipe => n332_pipe, pipe_s10 => pipe_s10, t214_s10 => t214_s10, t209_s10 => t209_s10, rem_33_out => rem_33, root_33_out => root_33);
  u_node44 : entity work.square_root_dp_node44
    port map (clk => clk, ce => ce, X0_pipe => X0_pipe, rem_33 => rem_33, root_33 => root_33, t226_out => t226);
  u_node45 : entity work.square_root_dp_node45
    port map (clk => clk, ce => ce, root_33 => root_33, t228_s11_out => t228_s11);
  u_node46 : entity work.square_root_dp_node46
    port map (clk => clk, ce => ce, root_33 => root_33, t231_s11_out => t231_s11);
  u_mux_bb36 : entity work.square_root_dp_mux_bb36
    port map (n362_pipe => n362_pipe, t231_s11 => t231_s11, t228_s11 => t228_s11, root_36_out => root_36);
  u_node48 : entity work.square_root_dp_node48
    port map (root_36 => root_36, t233_out => t233);
  u_pipe_bb3 : entity work.square_root_dp_pipe_bb3
    port map (X0 => X0, t9 => t9, t12 => t12, X0_pipe_out => X0_pipe, n55_pipe_out => n55_pipe, n59_pipe_out => n59_pipe);
  u_pipe_bb6 : entity work.square_root_dp_pipe_bb6
    port map (clk => clk, ce => ce, t24 => t24, t28 => t28, n80_pipe_out => n80_pipe, pipe_s1_out => pipe_s1);
  u_pipe_bb9 : entity work.square_root_dp_pipe_bb9
    port map (clk => clk, ce => ce, t45 => t45, t49 => t49, n104_pipe_out => n104_pipe, pipe_s2_out => pipe_s2);
  u_pipe_bb12 : entity work.square_root_dp_pipe_bb12
    port map (clk => clk, ce => ce, t66 => t66, t70 => t70, n129_pipe_out => n129_pipe, pipe_s3_out => pipe_s3);
  u_pipe_bb15 : entity work.square_root_dp_pipe_bb15
    port map (clk => clk, ce => ce, t87 => t87, t91 => t91, n155_pipe_out => n155_pipe, pipe_s4_out => pipe_s4);
  u_pipe_bb18 : entity work.square_root_dp_pipe_bb18
    port map (clk => clk, ce => ce, t108 => t108, t112 => t112, n182_pipe_out => n182_pipe, pipe_s5_out => pipe_s5);
  u_pipe_bb21 : entity work.square_root_dp_pipe_bb21
    port map (clk => clk, ce => ce, t127 => t127, t131 => t131, n210_pipe_out => n210_pipe, pipe_s6_out => pipe_s6);
  u_pipe_bb24 : entity work.square_root_dp_pipe_bb24
    port map (clk => clk, ce => ce, t146 => t146, t150 => t150, n239_pipe_out => n239_pipe, pipe_s7_out => pipe_s7);
  u_pipe_bb27 : entity work.square_root_dp_pipe_bb27
    port map (clk => clk, ce => ce, t165 => t165, t169 => t169, n269_pipe_out => n269_pipe, pipe_s8_out => pipe_s8);
  u_pipe_bb30 : entity work.square_root_dp_pipe_bb30
    port map (clk => clk, ce => ce, t184 => t184, t188 => t188, n300_pipe_out => n300_pipe, pipe_s9_out => pipe_s9);
  u_pipe_bb33 : entity work.square_root_dp_pipe_bb33
    port map (clk => clk, ce => ce, t203 => t203, t207 => t207, n332_pipe_out => n332_pipe, pipe_s10_out => pipe_s10);
  u_pipe_bb36 : entity work.square_root_dp_pipe_bb36
    port map (t226 => t226, n362_pipe_out => n362_pipe);
  R_o0 <= t233;
end architecture rtl;
