-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'iir_smooth'
-- data path: 1 nodes (1 soft, 0 hard), 1 pipeline stages
-- netlist: 8 cells, 20 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity iir_smooth_dp_node1 is
  port (
    X0 : in signed(11 downto 0);
    acc_reg : in signed(19 downto 0);
    t6_out : out signed(19 downto 0);
    t8_out : out signed(11 downto 0)
  );
end entity iir_smooth_dp_node1;

architecture rtl of iir_smooth_dp_node1 is
  signal t3 : signed(16 downto 0);
  signal t4 : signed(20 downto 0);
  signal t5 : signed(20 downto 0);
  signal t6 : signed(19 downto 0);
  signal t7 : signed(16 downto 0);
  signal t8 : signed(11 downto 0);
begin
  t3 <= acc_reg(19 downto 3);
  t4 <= resize(acc_reg, 21) - resize(t3, 21);
  t5 <= t4 + resize(X0, 21);
  t6 <= t5(19 downto 0);
  t7 <= t6(19 downto 3);
  t8 <= t7(11 downto 0);
  t6_out <= t6;
  t8_out <= t8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity iir_smooth_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    X0 : in signed(11 downto 0);
    Y_o0 : out signed(11 downto 0)
  );
end entity iir_smooth_dp;

architecture rtl of iir_smooth_dp is
  signal t6 : signed(19 downto 0);
  signal t8 : signed(11 downto 0);
  signal n2_valid : unsigned(0 downto 0);
  signal acc_reg : signed(19 downto 0) := (others => '0');
begin
  n2_valid <= "1" when valid = '1' else "0";
  u_node1 : entity work.iir_smooth_dp_node1
    port map (X0 => X0, acc_reg => acc_reg, t6_out => t6, t8_out => t8);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        if n2_valid /= 0 then
          acc_reg <= t6;
        end if;
      end if;
    end if;
  end process;
  Y_o0 <= t8;
end architecture rtl;
